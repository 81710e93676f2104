package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"adrdedup/internal/adr"
)

// referenceDecodeReport, referenceCheckReport and referenceDecodeBatch are
// the encoding/json ingest decoders the one-pass decoder replaced, kept
// verbatim as its oracle.
func referenceDecodeReport(data []byte) (adr.Report, error) {
	var r adr.Report
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&r); err != nil {
		return adr.Report{}, &RequestError{Status: http.StatusBadRequest,
			Msg: "invalid report JSON: " + err.Error()}
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return adr.Report{}, &RequestError{Status: http.StatusBadRequest,
			Msg: "trailing data after report object"}
	}
	if err := referenceCheckReport(&r); err != nil {
		return adr.Report{}, err
	}
	r.ArrivalSeq = 0
	return r, nil
}

func referenceCheckReport(r *adr.Report) error {
	if r.CaseNumber == "" {
		return &RequestError{Status: http.StatusUnprocessableEntity,
			Msg: "report without case number"}
	}
	if r.CalculatedAge < 0 || r.CalculatedAge > 150 {
		return &RequestError{Status: http.StatusUnprocessableEntity,
			Msg: fmt.Sprintf("calculated age %d out of range [0, 150]", r.CalculatedAge)}
	}
	v := reflect.ValueOf(r).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type.Kind() != reflect.String {
			continue
		}
		if n := len(v.Field(i).String()); n > MaxFieldBytes {
			return &RequestError{Status: http.StatusRequestEntityTooLarge,
				Msg: fmt.Sprintf("field %s is %d bytes, limit %d", t.Field(i).Name, n, MaxFieldBytes)}
		}
	}
	return nil
}

func referenceDecodeBatch(data []byte, maxBatch int) ([]adr.Report, error) {
	var raws []json.RawMessage
	bare := false
	for _, b := range data {
		if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
			continue
		}
		bare = b == '['
		break
	}
	if bare {
		if err := json.Unmarshal(data, &raws); err != nil {
			return nil, &RequestError{Status: http.StatusBadRequest,
				Msg: "invalid batch JSON: " + err.Error()}
		}
	} else {
		var req struct {
			Reports []json.RawMessage `json:"reports"`
		}
		if err := json.Unmarshal(data, &req); err != nil {
			return nil, &RequestError{Status: http.StatusBadRequest,
				Msg: "invalid batch JSON: " + err.Error()}
		}
		raws = req.Reports
	}
	if len(raws) == 0 {
		return nil, errEmptyBatch
	}
	if maxBatch > 0 && len(raws) > maxBatch {
		return nil, errBatchTooLarge(len(raws), maxBatch)
	}
	out := make([]adr.Report, len(raws))
	seen := make(map[string]int, len(raws))
	for i, raw := range raws {
		r, err := referenceDecodeReport(raw)
		if err != nil {
			re := err.(*RequestError)
			return nil, &RequestError{Status: re.Status,
				Msg: fmt.Sprintf("report %d: %s", i, re.Msg)}
		}
		if j, dup := seen[r.CaseNumber]; dup {
			return nil, &RequestError{Status: http.StatusUnprocessableEntity,
				Msg: fmt.Sprintf("reports %d and %d share case number %q", j, i, r.CaseNumber)}
		}
		seen[r.CaseNumber] = i
		out[i] = r
	}
	return out, nil
}

// sameOutcome fails t unless the two decodes agree: equal values, or
// errors carrying the same status.
func sameOutcome(t *testing.T, what string, body []byte, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s(%q): err %v, reference err %v", what, body, gotErr, wantErr)
	}
	if wantErr != nil {
		var g, w *RequestError
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) {
			t.Fatalf("%s(%q): untyped error %v (reference %v)", what, body, gotErr, wantErr)
		}
		if g.Status != w.Status {
			t.Fatalf("%s(%q): status %d (%s), reference %d (%s)", what, body, g.Status, g.Msg, w.Status, w.Msg)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q):\n got %+v\nwant %+v", what, body, got, want)
	}
}

// checkDecodeMatchesReference runs both decoders over body, as a single
// report and as a batch at two limits, and over body wrapped as the one
// element of both batch forms.
func checkDecodeMatchesReference(t *testing.T, body []byte) {
	t.Helper()
	r, err := DecodeReport(body)
	wr, werr := referenceDecodeReport(body)
	sameOutcome(t, "DecodeReport", body, r, wr, err, werr)
	for _, max := range []int{0, 2} {
		b, err := DecodeBatch(body, max)
		wb, werr := referenceDecodeBatch(body, max)
		sameOutcome(t, fmt.Sprintf("DecodeBatch/max=%d", max), body, b, wb, err, werr)
	}
	for _, wrapped := range [][]byte{
		append(append([]byte("["), body...), ']'),
		append(append([]byte(`{"reports":[`), body...), "]}"...),
	} {
		b, err := DecodeBatch(wrapped, 0)
		wb, werr := referenceDecodeBatch(wrapped, 0)
		sameOutcome(t, "DecodeBatch", wrapped, b, wb, err, werr)
	}
}

// decodeTraps are bodies where a hand-written JSON decoder is most likely
// to part from encoding/json.
var decodeTraps = []string{
	// Plain reports and batches.
	`{"caseNumber":"TGA-1","calculatedAge":34,"sex":"F","genericNameDesc":"Influenza Vaccine,Dtpa Vaccine","meddraPTName":"Headache","reportDescription":"Patient experienced a headache."}`,
	`{"reports":[{"caseNumber":"A"},{"caseNumber":"B"}]}`,
	` [ {"caseNumber":"A"} , {"caseNumber":"B"} ] `,
	`{"reports":[{"caseNumber":"A"},{"caseNumber":"B"},{"caseNumber":"C"}]}`,
	`{"reports":[{"caseNumber":"A"},{"caseNumber":"A"}]}`,
	`{"caseNumber":"A","arrivalSeq":77}`,
	// Case-folded keys, ſ (U+017F) folding to s and K (U+212A) to k.
	`{"CASENUMBER":"A","Sex":"M"}`,
	`{"caſeNumber":"A","reportDeſcription":"ſ"}`,
	`{"caseNumber":"A","ReportTypeDesc":"x","weightCode":"K"}`,
	`{"caseNumber":"A","bacKground":"k"}`,
	`{"REPORTS":[{"caseNumber":"A"}]}`,
	`{"reportſ":[{"caseNumber":"A"}]}`,
	`{"caseNumber":"A"}`,
	// Repeated keys: the last value wins, a repeated reports key replaces
	// the earlier array, and null leaves a field as it was.
	`{"caseNumber":"A","caseNumber":"B","sex":"F","SEX":"M"}`,
	`{"caseNumber":"A","caseNumber":null}`,
	`{"caseNumber":"A","calculatedAge":3,"calculatedAge":null}`,
	`{"reports":[{"caseNumber":"A","sex":"F"}],"reports":[{"caseNumber":"B"}]}`,
	`{"reports":[{"caseNumber":"A"},{"caseNumber":"B"}],"reports":[{"caseNumber":"C"}]}`,
	`{"reports":[{"caseNumber":"A"}],"reports":null}`,
	`{"reports":[{"caseNumber":"A"}],"reports":[]}`,
	`{"reports":[1],"reports":[{"caseNumber":"A"}]}`,
	`{"reports":7,"reports":[{"caseNumber":"A"}]}`,
	// \u escapes: paired and unpaired surrogates.
	`{"caseNumber":"😀"}`,
	`{"caseNumber":"\ud83d"}`,
	`{"caseNumber":"\ude00x"}`,
	`{"caseNumber":"\ud83dA"}`,
	`{"caseNumber":"\ud83d😀"}`,
	`{"caseNumber":"a\u0000b\"\\\/\b\f\n\r\té�"}`,
	// Invalid UTF-8 becomes U+FFFD, in values and keys.
	"{\"caseNumber\":\"A\xff\xfeB\"}",
	"{\"caseNumber\":\"\xed\xa0\x80\"}",
	"{\"caseNumber\":\"A\",\"se\xffx\":\"F\"}",
	"{\"caseNumber\":\"A\",\"sex\":\"\xc3\"}",
	// Raw control characters.
	"{\"caseNumber\":\"A\x01\"}",
	"{\"caseNumber\":\"A\nB\"}",
	"{\"caseNumber\":\"A\"}\x00",
	// calculatedAge as a number that is not an int, and at the limits.
	`{"caseNumber":"A","calculatedAge":1.0}`,
	`{"caseNumber":"A","calculatedAge":1e2}`,
	`{"caseNumber":"A","calculatedAge":-0}`,
	`{"caseNumber":"A","calculatedAge":9223372036854775808}`,
	`{"caseNumber":"A","calculatedAge":-9223372036854775809}`,
	`{"caseNumber":"A","calculatedAge":150}`,
	`{"caseNumber":"A","calculatedAge":151}`,
	`{"caseNumber":"A","calculatedAge":01}`,
	`{"caseNumber":"A","calculatedAge":-}`,
	`{"caseNumber":"A","arrivalSeq":1.5}`,
	// null reports and null fields.
	`null`,
	`[null]`,
	`{"reports":null}`,
	`{"reports":[null]}`,
	`{"caseNumber":null}`,
	// Wrongly typed fields.
	`{"caseNumber":7}`,
	`{"caseNumber":"A","sex":true}`,
	`{"caseNumber":"A","sex":{"x":1}}`,
	`{"caseNumber":"A","calculatedAge":"34"}`,
	`{"caseNumber":"A","calculatedAge":[1]}`,
	`{"reports":{"caseNumber":"A"}}`,
	`[1,{"caseNumber":"A"}]`,
	`"A"`,
	`[]`,
	`{}`,
	// Nested unknown values.
	`{"caseNumber":"A","extra":{"a":[1,{"b":[true,false,null,"é"]}],"c":{}}}`,
	`{"caseNumber":"A","extra":[[[[[[[[[[]]]]]]]]]]}`,
	`{"caseNumber":"A","extra":[1,2,]}`,
	// Trailing data.
	`{"caseNumber":"A"} {"caseNumber":"B"}`,
	`{"caseNumber":"A"}x`,
	`{"caseNumber":"A"}` + " \t\r\n",
	`[{"caseNumber":"A"}] [`,
	`{"reports":[{"caseNumber":"A"}]}}`,
	// Error order: an earlier report failing checkReport (422) before a
	// later type error (400), and the other way round; and a later syntax
	// error that outranks both.
	`[{"caseNumber":""},{"caseNumber":5}]`,
	`[{"caseNumber":5},{"caseNumber":""}]`,
	`[{"caseNumber":""},{"caseNumber":5},]`,
	`{"reports":[{"caseNumber":"A"},{"caseNumber":"A"},{"sex":1}]}`,
	`{"reports":[{"sex":1},{"caseNumber":"A"},{"caseNumber":"A"}]}`,
	// Malformed bodies.
	``,
	` `,
	`{`,
	`{"caseNumber"}`,
	`{"caseNumber":"A",}`,
	`{"caseNumber":"A" "sex":"F"}`,
	`{'caseNumber':'A'}`,
	`{"caseNumber":"\x"}`,
	`{"caseNumber":"\u12"}`,
	`nul`,
	`tru`,
	"\xef\xbb\xbf{\"caseNumber\":\"A\"}",
}

func TestDecodeTrapsMatchReference(t *testing.T) {
	for _, s := range decodeTraps {
		checkDecodeMatchesReference(t, []byte(s))
	}
}

// TestDecodeOversizedFieldsMatchReference covers MaxFieldBytes: over the
// limit only once escapes are decoded, and too long behind an earlier
// failure.
func TestDecodeOversizedFieldsMatchReference(t *testing.T) {
	long := strings.Repeat("x", MaxFieldBytes+1)
	for _, s := range []string{
		`{"caseNumber":"A","treatmentText":"` + long + `"}`,
		`{"caseNumber":"A","treatmentText":"` + long[1:] + `"}`,
		`{"caseNumber":"A","treatmentText":"` + strings.Repeat(`\n`, MaxFieldBytes) + `"}`,
		`{"caseNumber":"A","treatmentText":"` + strings.Repeat(`\n`, MaxFieldBytes+1) + `"}`,
		`{"caseNumber":"","treatmentText":"` + long + `"}`,
		`{"caseNumber":"A","calculatedAge":-1,"treatmentText":"` + long + `"}`,
		`{"caseNumber":"A","treatmentText":"` + long + `","treatmentText":"short"}`,
		`{"reports":[{"caseNumber":"A","sex":"` + long + `"},{"caseNumber":5}]}`,
	} {
		checkDecodeMatchesReference(t, []byte(s))
	}
}

// TestDecodeNestingLimit checks encoding/json's depth limit of 10000 open
// objects and arrays at its boundary, in both bodies.
func TestDecodeNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 3, maxDepth - 2, maxDepth - 1, maxDepth} {
		nest := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		checkDecodeMatchesReference(t, []byte(`{"caseNumber":"A","x":`+nest+`}`))
	}
}

// TestReportFieldsMatchStruct pins the decoder's field table to adr.Report:
// every field, in order, under its JSON name, with the right accessor.
func TestReportFieldsMatchStruct(t *testing.T) {
	var r adr.Report
	v := reflect.ValueOf(&r).Elem()
	if v.NumField() != len(reportFields) {
		t.Fatalf("adr.Report has %d fields, the table %d", v.NumField(), len(reportFields))
	}
	for i, f := range reportFields {
		sf := v.Type().Field(i)
		if tag := strings.Split(sf.Tag.Get("json"), ",")[0]; tag != f.name {
			t.Errorf("slot %d is %q, field %s is tagged %q", i, f.name, sf.Name, tag)
		}
		addr := v.Field(i).Addr().Interface()
		switch sf.Type.Kind() {
		case reflect.String:
			if f.str == nil || f.str(&r) != addr.(*string) {
				t.Errorf("slot %d (%s) does not address field %s", i, f.name, sf.Name)
			}
		case reflect.Int:
			if f.num == nil || f.num(&r) != addr.(*int) {
				t.Errorf("slot %d (%s) does not address field %s", i, f.name, sf.Name)
			}
		default:
			t.Errorf("field %s has kind %s, which the decoder does not handle", sf.Name, sf.Type.Kind())
		}
	}
}

// TestDecodeGeneratedTrafficMatchesReference runs the load generator's
// bodies, marshalled as RunLoad sends them, through both decoders.
func TestDecodeGeneratedTrafficMatchesReference(t *testing.T) {
	traffic := GenerateTraffic(TrafficConfig{Reports: 40, DupFraction: 0.3, Seed: 41})
	for i := 0; i < len(traffic); i += 10 {
		checkDecodeMatchesReference(t, batchBody(t, traffic[i:i+10]))
		one, err := json.Marshal(traffic[i])
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeMatchesReference(t, one)
	}
}

// FuzzDecodeMatchesReference holds the one-pass decoder to encoding/json:
// for every body, both decoders return equal reports or errors with the
// same status, as a single report, as a batch, and wrapped as a batch's one
// report. The committed corpus under testdata/fuzz/FuzzDecodeMatchesReference
// holds one file per kind of trap in decodeTraps.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, s := range decodeTraps {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeMatchesReference)
}

func batchBody(tb testing.TB, reports []adr.Report) []byte {
	body, err := json.Marshal(struct {
		Reports []adr.Report `json:"reports"`
	}{reports})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeBatch decodes a 10-report body as RunLoad sends it.
func BenchmarkDecodeBatch(b *testing.B) {
	body := batchBody(b, GenerateTraffic(TrafficConfig{Reports: 10, Seed: 3}))
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(body, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeReport decodes one report body of the single endpoint.
func BenchmarkDecodeReport(b *testing.B) {
	body, err := json.Marshal(GenerateTraffic(TrafficConfig{Reports: 1, Seed: 3})[0])
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReport(body); err != nil {
			b.Fatal(err)
		}
	}
}
