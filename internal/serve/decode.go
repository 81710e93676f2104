package serve

import (
	"bytes"
	"cmp"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"adrdedup/internal/adr"
)

// The ingest decoder parses a body in one pass straight into adr.Report
// values. It accepts, produces and rejects exactly what encoding/json does
// when it decodes the same body into adr.Report (FuzzDecodeMatchesReference
// holds it to that):
//
//   - keys match field names exactly or under bytes.EqualFold, unknown keys
//     are skipped, and a repeated key's last value wins;
//   - null leaves a string or int field as it was;
//   - a value of the wrong type for its field (a number that is not an
//     int, a string in calculatedAge, an object in sex, ...) rejects the
//     report, but only after the whole body has proven well-formed;
//   - \u escapes decode with encoding/json's surrogate rules, and invalid
//     UTF-8 becomes U+FFFD;
//   - more than maxDepth open objects and arrays is a syntax error.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// reportField is one JSON field of adr.Report. Exactly one of str and num
// is set: they return the field's address in a report.
type reportField struct {
	name string
	str  func(*adr.Report) *string
	num  func(*adr.Report) *int
}

// reportFields lists adr.Report's fields in struct order, under their JSON
// names. TestReportFieldsMatchStruct pins it to the struct.
var reportFields = [...]reportField{
	{name: "caseNumber", str: func(r *adr.Report) *string { return &r.CaseNumber }},
	{name: "reportDate", str: func(r *adr.Report) *string { return &r.ReportDate }},
	{name: "calculatedAge", num: func(r *adr.Report) *int { return &r.CalculatedAge }},
	{name: "sex", str: func(r *adr.Report) *string { return &r.Sex }},
	{name: "weightCode", str: func(r *adr.Report) *string { return &r.WeightCode }},
	{name: "ethnicityCode", str: func(r *adr.Report) *string { return &r.EthnicityCode }},
	{name: "residentialState", str: func(r *adr.Report) *string { return &r.ResidentialState }},
	{name: "onsetDate", str: func(r *adr.Report) *string { return &r.OnsetDate }},
	{name: "dateOfOutcome", str: func(r *adr.Report) *string { return &r.DateOfOutcome }},
	{name: "reactionOutcomeCode", str: func(r *adr.Report) *string { return &r.ReactionOutcomeCode }},
	{name: "reactionOutcomeDesc", str: func(r *adr.Report) *string { return &r.ReactionOutcomeDesc }},
	{name: "severityCode", str: func(r *adr.Report) *string { return &r.SeverityCode }},
	{name: "severityDesc", str: func(r *adr.Report) *string { return &r.SeverityDesc }},
	{name: "reportDescription", str: func(r *adr.Report) *string { return &r.ReportDescription }},
	{name: "treatmentText", str: func(r *adr.Report) *string { return &r.TreatmentText }},
	{name: "hospitalisationCode", str: func(r *adr.Report) *string { return &r.HospitalisationCode }},
	{name: "hospitalisationDesc", str: func(r *adr.Report) *string { return &r.HospitalisationDesc }},
	{name: "meddraLLTCode", str: func(r *adr.Report) *string { return &r.MedDRALLTCode }},
	{name: "meddraLLTName", str: func(r *adr.Report) *string { return &r.MedDRALLTName }},
	{name: "meddraPTCode", str: func(r *adr.Report) *string { return &r.MedDRAPTCode }},
	{name: "meddraPTName", str: func(r *adr.Report) *string { return &r.MedDRAPTName }},
	{name: "suspectCode", str: func(r *adr.Report) *string { return &r.SuspectCode }},
	{name: "suspectDesc", str: func(r *adr.Report) *string { return &r.SuspectDesc }},
	{name: "tradeNameCode", str: func(r *adr.Report) *string { return &r.TradeNameCode }},
	{name: "tradeNameDesc", str: func(r *adr.Report) *string { return &r.TradeNameDesc }},
	{name: "genericNameCode", str: func(r *adr.Report) *string { return &r.GenericNameCode }},
	{name: "genericNameDesc", str: func(r *adr.Report) *string { return &r.GenericNameDesc }},
	{name: "dosageAmount", str: func(r *adr.Report) *string { return &r.DosageAmount }},
	{name: "unitProportionCode", str: func(r *adr.Report) *string { return &r.UnitProportionCode }},
	{name: "dosageFormCode", str: func(r *adr.Report) *string { return &r.DosageFormCode }},
	{name: "dosageFormDesc", str: func(r *adr.Report) *string { return &r.DosageFormDesc }},
	{name: "routeOfAdminCode", str: func(r *adr.Report) *string { return &r.RouteOfAdminCode }},
	{name: "routeOfAdminDesc", str: func(r *adr.Report) *string { return &r.RouteOfAdminDesc }},
	{name: "dosageStartDate", str: func(r *adr.Report) *string { return &r.DosageStartDate }},
	{name: "dosageHaltDate", str: func(r *adr.Report) *string { return &r.DosageHaltDate }},
	{name: "reporterType", str: func(r *adr.Report) *string { return &r.ReporterType }},
	{name: "reportTypeDesc", str: func(r *adr.Report) *string { return &r.ReportTypeDesc }},
	{name: "arrivalSeq", num: func(r *adr.Report) *int { return &r.ArrivalSeq }},
}

// fieldIndex maps each exact JSON name to its reportFields slot.
var fieldIndex = func() map[string]int {
	m := make(map[string]int, len(reportFields))
	for i, f := range reportFields {
		m[f.name] = i
	}
	return m
}()

// lookupField returns the reportFields slot key names, or -1.
func lookupField(key []byte) int {
	if i, ok := fieldIndex[string(key)]; ok {
		return i
	}
	k := string(key)
	for i, f := range reportFields {
		if strings.EqualFold(k, f.name) {
			return i
		}
	}
	return -1
}

var reportsKey = []byte("reports")

// DecodeReport parses one JSON report object with the service's structural
// guards: well-formed JSON, exactly one object, a non-empty case number,
// every string field at most MaxFieldBytes, a plausible age. ArrivalSeq is
// always reset — arrival order is assigned by the database, never by the
// client. All failures are *RequestError (4xx).
func DecodeReport(data []byte) (adr.Report, error) {
	d := newDecoder(data)
	var r adr.Report
	d.space()
	typeErr := d.report(&r)
	if d.syntaxErr == "" {
		d.space()
		if d.off < len(d.data) {
			return adr.Report{}, &RequestError{Status: http.StatusBadRequest,
				Msg: "trailing data after report object"}
		}
	}
	if msg := cmp.Or(d.syntaxErr, typeErr); msg != "" {
		return adr.Report{}, &RequestError{Status: http.StatusBadRequest,
			Msg: "invalid report JSON: " + msg}
	}
	if err := checkReport(&r); err != nil {
		return adr.Report{}, err
	}
	r.ArrivalSeq = 0
	return r, nil
}

// checkReport enforces the per-field guards on a decoded report.
func checkReport(r *adr.Report) error {
	if r.CaseNumber == "" {
		return &RequestError{Status: http.StatusUnprocessableEntity,
			Msg: "report without case number"}
	}
	if r.CalculatedAge < 0 || r.CalculatedAge > 150 {
		return &RequestError{Status: http.StatusUnprocessableEntity,
			Msg: fmt.Sprintf("calculated age %d out of range [0, 150]", r.CalculatedAge)}
	}
	for _, f := range reportFields {
		if f.str == nil {
			continue
		}
		if n := len(*f.str(r)); n > MaxFieldBytes {
			return &RequestError{Status: http.StatusRequestEntityTooLarge,
				Msg: fmt.Sprintf("field %s is %d bytes, limit %d", f.name, n, MaxFieldBytes)}
		}
	}
	return nil
}

// DecodeBatch parses a batch ingest body: either {"reports": [...]} or a
// bare JSON array of report objects. Beyond the per-report guards it
// refuses empty batches, batches over maxBatch, and duplicate case numbers
// within the batch (which the database would reject anyway — refusing them
// at the door keeps the rejection a typed 4xx). A malformed body is refused
// before any report is judged; then the reports are judged in order and the
// first failure is returned. All failures are *RequestError.
func DecodeBatch(data []byte, maxBatch int) ([]adr.Report, error) {
	d := newDecoder(data)
	var (
		reports  []adr.Report
		typeAt   = -1 // the first report holding a wrongly typed value
		typeErr  string
		notArray bool // the body, or a "reports" member, is neither array nor null
	)
	// elems decodes a reports array into fresh elements: a repeated
	// "reports" key replaces the earlier array outright.
	elems := func() {
		reports, typeAt = reports[:0], -1
		d.array(func() {
			reports = append(reports, adr.Report{})
			if msg := d.report(&reports[len(reports)-1]); msg != "" && typeAt < 0 {
				typeAt, typeErr = len(reports)-1, msg
			}
		})
	}
	d.space()
	switch d.peek() {
	case '[':
		elems()
	case '{':
		d.object(func(key []byte) {
			if !bytes.EqualFold(key, reportsKey) {
				d.skip()
				return
			}
			switch d.peek() {
			case '[':
				elems()
			case 'n':
				d.literal("null")
				reports, typeAt = nil, -1
			default:
				d.skip()
				notArray = true
			}
		})
	case 'n':
		d.literal("null")
	default:
		d.skip()
		notArray = true
	}
	if d.syntaxErr == "" {
		d.space()
		if d.off < len(d.data) {
			d.fail("trailing data after top-level value")
		}
	}
	if d.syntaxErr != "" {
		return nil, &RequestError{Status: http.StatusBadRequest,
			Msg: "invalid batch JSON: " + d.syntaxErr}
	}
	if notArray {
		return nil, &RequestError{Status: http.StatusBadRequest,
			Msg: "invalid batch JSON: want an array of reports or {\"reports\": [...]}"}
	}
	if len(reports) == 0 {
		return nil, errEmptyBatch
	}
	if maxBatch > 0 && len(reports) > maxBatch {
		return nil, errBatchTooLarge(len(reports), maxBatch)
	}
	seen := make(map[string]int, len(reports))
	for i := range reports {
		r := &reports[i]
		if i == typeAt {
			return nil, &RequestError{Status: http.StatusBadRequest,
				Msg: fmt.Sprintf("report %d: invalid report JSON: %s", i, typeErr)}
		}
		if err := checkReport(r); err != nil {
			re := err.(*RequestError)
			return nil, &RequestError{Status: re.Status,
				Msg: fmt.Sprintf("report %d: %s", i, re.Msg)}
		}
		if j, dup := seen[r.CaseNumber]; dup {
			return nil, &RequestError{Status: http.StatusUnprocessableEntity,
				Msg: fmt.Sprintf("reports %d and %d share case number %q", j, i, r.CaseNumber)}
		}
		seen[r.CaseNumber] = i
		r.ArrivalSeq = 0
	}
	return reports, nil
}

// decoder is a cursor over one body. Parsing stops at the first syntax
// error, which syntaxErr records; wrongly typed values are the callers'
// business, since the body must still prove well-formed after one.
type decoder struct {
	data      []byte
	off       int
	depth     int
	syntaxErr string
	strs      []byte // the decoded strings of the report being parsed
	key       []byte // scratch for a key that needs unquoting
}

func newDecoder(data []byte) *decoder {
	return &decoder{data: data, strs: make([]byte, 0, min(len(data), 16<<10))}
}

func (d *decoder) fail(msg string) {
	if d.syntaxErr == "" {
		d.syntaxErr = fmt.Sprintf("%s at offset %d", msg, d.off)
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body (which
// no caller accepts as the start of anything).
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// report decodes the value at the cursor into r, which must be zero. It
// returns a description of the first wrongly typed value, or "" — also for
// null, which leaves r zero.
func (d *decoder) report(r *adr.Report) (typeErr string) {
	switch d.peek() {
	case 'n':
		d.literal("null")
		return ""
	case '{':
	default:
		d.skip()
		return "report is not a JSON object"
	}
	// Every string of the report is decoded into d.strs and cut from one
	// string at the end; spans remembers where each field's last value is.
	// A field whose last value is empty, or that has none, stays "".
	var spans [len(reportFields)]struct{ lo, hi int }
	d.strs = d.strs[:0]
	d.object(func(key []byte) {
		i := lookupField(key)
		if i < 0 {
			d.skip()
			return
		}
		f := &reportFields[i]
		switch c := d.peek(); {
		case c == 'n':
			d.literal("null")
		case c == '"' && f.str != nil:
			raw, plain := d.str()
			lo := len(d.strs)
			if plain {
				d.strs = append(d.strs, raw...)
			} else {
				d.strs = appendUnquoted(d.strs, raw)
			}
			spans[i].lo, spans[i].hi = lo, len(d.strs)
		case (c == '-' || '0' <= c && c <= '9') && f.num != nil:
			raw := d.number()
			n, err := strconv.ParseInt(string(raw), 10, strconv.IntSize)
			if err == nil {
				*f.num(r) = int(n)
			} else if typeErr == "" {
				typeErr = fmt.Sprintf("number %s does not fit field %s", raw, f.name)
			}
		default:
			d.skip()
			if typeErr == "" {
				typeErr = "wrong value type for field " + f.name
			}
		}
	})
	if d.syntaxErr != "" {
		return typeErr
	}
	s := string(d.strs)
	for i, sp := range spans {
		if sp.hi > sp.lo {
			*reportFields[i].str(r) = s[sp.lo:sp.hi]
		}
	}
	return typeErr
}

// open enters the object or array at the cursor.
func (d *decoder) open() {
	d.off++
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
	}
}

// object parses the object at the cursor, calling member with each key
// (unquoted, valid until the next key) and the cursor on its value, which
// member must consume.
func (d *decoder) object(member func(key []byte)) {
	d.open()
	d.space()
	if d.peek() == '}' {
		d.off++
		d.depth--
		return
	}
	for d.syntaxErr == "" {
		d.space()
		if d.peek() != '"' {
			d.fail("want an object key")
			return
		}
		key, plain := d.str()
		if d.syntaxErr != "" {
			return
		}
		if !plain {
			d.key = appendUnquoted(d.key[:0], key)
			key = d.key
		}
		d.space()
		if d.peek() != ':' {
			d.fail("want ':' after object key")
			return
		}
		d.off++
		d.space()
		member(key)
		if d.syntaxErr != "" {
			return
		}
		d.space()
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return
		default:
			d.fail("want ',' or '}' in object")
		}
	}
}

// array parses the array at the cursor, calling elem with the cursor on
// each element, which elem must consume.
func (d *decoder) array(elem func()) {
	d.open()
	d.space()
	if d.peek() == ']' {
		d.off++
		d.depth--
		return
	}
	for d.syntaxErr == "" {
		d.space()
		elem()
		if d.syntaxErr != "" {
			return
		}
		d.space()
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return
		default:
			d.fail("want ',' or ']' in array")
		}
	}
}

// skip parses and discards the value at the cursor.
func (d *decoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.object(func([]byte) { d.skip() })
	case c == '[':
		d.array(d.skip)
	case c == '"':
		d.str()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	case d.off == len(d.data):
		d.fail("unexpected end of input")
	default:
		d.fail(fmt.Sprintf("invalid character %q looking for a value", c))
	}
}

func (d *decoder) literal(lit string) {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		d.fail("invalid literal")
		return
	}
	d.off += len(lit)
}

// str parses the string at the cursor and returns the bytes between its
// quotes. plain reports that they are its value as they stand: no escapes
// and no bytes beyond ASCII, which appendUnquoted must otherwise decode.
func (d *decoder) str() (raw []byte, plain bool) {
	d.off++
	start := d.off
	plain = true
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			raw = d.data[start:d.off]
			d.off++
			return raw, plain
		case c == '\\':
			plain = false
			d.off++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for k := 0; k < 4; k++ {
					if !isHex(d.peek()) {
						d.fail("invalid \\u escape")
						return nil, false
					}
					d.off++
				}
			default:
				d.fail("invalid escape in string")
				return nil, false
			}
		case c < ' ':
			d.fail("control character in string")
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.off++
		}
	}
	d.fail("unterminated string")
	return nil, false
}

// number parses the number at the cursor and returns its text.
func (d *decoder) number() []byte {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		d.fail("invalid number")
		return nil
	}
	if d.peek() == '.' {
		d.off++
		if !isDigit(d.peek()) {
			d.fail("invalid number")
			return nil
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !isDigit(d.peek()) {
			d.fail("invalid number")
			return nil
		}
		d.digits()
	}
	return d.data[start:d.off]
}

func (d *decoder) digits() {
	for isDigit(d.peek()) {
		d.off++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// appendUnquoted appends the value of a well-formed string's contents as
// encoding/json decodes it: escapes resolved, a \u surrogate pair joined
// and a lone surrogate made U+FFFD, and each byte of invalid UTF-8 made
// U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if len(s) >= r+6 && s[r] == '\\' && s[r+1] == 'u' {
						rr1 = hex4(s[r+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						r += 6
						dst = utf8.AppendRune(dst, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			dst = utf8.AppendRune(dst, rr)
		}
	}
	return dst
}

// hex4 returns the value of the four hex digits s starts with.
func hex4(s []byte) rune {
	var v rune
	for _, c := range s[:4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		v = v<<4 | rune(c)
	}
	return v
}
