package text

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"On 30 April 2013, in the evening", []string{"on", "30", "april", "2013", "in", "the", "evening"}},
		{"atorvastatin calcium 80 mg", []string{"atorvastatin", "calcium", "80", "mg"}},
		{"02-Oct-2013", []string{"02", "oct", "2013"}},
		{"  spaces   everywhere  ", []string{"spaces", "everywhere"}},
		{"!!!", nil},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
		{"myalgia,shoulder/hips", []string{"myalgia", "shoulder", "hips"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeNoEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeIdempotentOnJoined(t *testing.T) {
	// Tokenizing the space-join of a token list returns the same list.
	f := func(s string) bool {
		first := Tokenize(s)
		joined := ""
		for i, tok := range first {
			if i > 0 {
				joined += " "
			}
			joined += tok
		}
		second := Tokenize(joined)
		if len(first) == 0 {
			return len(second) == 0
		}
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStopwords(t *testing.T) {
	for _, w := range []string{"the", "and", "of", "patient", "subject", "report"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false, want true", w)
		}
	}
	for _, w := range []string{"rhabdomyolysis", "atorvastatin", "headache", "cough"} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true, want false", w)
		}
	}
}

// Porter's published vocabulary gives exact expected outputs; these cases
// are drawn from the reference test set plus ADR-domain words.
func TestPorterStemmer(t *testing.T) {
	cases := []struct{ in, want string }{
		{"caresses", "caress"},
		{"ponies", "poni"},
		{"ties", "ti"},
		{"caress", "caress"},
		{"cats", "cat"},
		{"feed", "feed"},
		{"agreed", "agre"},
		{"plastered", "plaster"},
		{"bled", "bled"},
		{"motoring", "motor"},
		{"sing", "sing"},
		{"conflated", "conflat"},
		{"troubled", "troubl"},
		{"sized", "size"},
		{"hopping", "hop"},
		{"tanned", "tan"},
		{"falling", "fall"},
		{"hissing", "hiss"},
		{"fizzed", "fizz"},
		{"failing", "fail"},
		{"filing", "file"},
		{"happy", "happi"},
		{"sky", "sky"},
		{"relational", "relat"},
		{"conditional", "condit"},
		{"rational", "ration"},
		{"valenci", "valenc"},
		{"hesitanci", "hesit"},
		{"digitizer", "digit"},
		{"conformabli", "conform"},
		{"radicalli", "radic"},
		{"differentli", "differ"},
		{"vileli", "vile"},
		{"analogousli", "analog"},
		{"vietnamization", "vietnam"},
		{"predication", "predic"},
		{"operator", "oper"},
		{"feudalism", "feudal"},
		{"decisiveness", "decis"},
		{"hopefulness", "hope"},
		{"callousness", "callous"},
		{"formaliti", "formal"},
		{"sensitiviti", "sensit"},
		{"sensibiliti", "sensibl"},
		{"triplicate", "triplic"},
		{"formative", "form"},
		{"formalize", "formal"},
		{"electriciti", "electr"},
		{"electrical", "electr"},
		{"hopeful", "hope"},
		{"goodness", "good"},
		{"revival", "reviv"},
		{"allowance", "allow"},
		{"inference", "infer"},
		{"airliner", "airlin"},
		{"gyroscopic", "gyroscop"},
		{"adjustable", "adjust"},
		{"defensible", "defens"},
		{"irritant", "irrit"},
		{"replacement", "replac"},
		{"adjustment", "adjust"},
		{"dependent", "depend"},
		{"adoption", "adopt"},
		{"homologou", "homolog"},
		{"communism", "commun"},
		{"activate", "activ"},
		{"angulariti", "angular"},
		{"homologous", "homolog"},
		{"effective", "effect"},
		{"bowdlerize", "bowdler"},
		{"probate", "probat"},
		{"rate", "rate"},
		{"cease", "ceas"},
		{"controll", "control"},
		{"roll", "roll"},
		// ADR-domain vocabulary.
		{"vaccination", "vaccin"},
		{"vaccinated", "vaccin"},
		{"choking", "choke"},
		{"vomiting", "vomit"},
		{"treatments", "treatment"},
		{"headaches", "headach"},
		// Short and non-alphabetic tokens pass through.
		{"be", "be"},
		{"a", "a"},
		{"80", "80"},
		{"x2y", "x2y"},
	}
	for _, c := range cases {
		if got := Stem(c.in); got != c.want {
			t.Errorf("Stem(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func BenchmarkPorterStemmer(b *testing.B) {
	words := []string{"vaccination", "uncontrollable", "rhabdomyolysis", "experienced", "hospitalization"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func TestStemIdempotent(t *testing.T) {
	// A stemmed word stems to itself for typical vocabulary. (True Porter
	// idempotence holds for the overwhelming majority of English words;
	// we assert it on domain vocabulary to catch regressions.)
	words := []string{
		"vaccination", "rhabdomyolysis", "headaches", "experienced",
		"treatment", "hospitalization", "reactions", "choking", "myalgia",
		"weakness", "uncontrollable", "ambulance", "oxygen",
	}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not idempotent for %q: %q -> %q", w, once, twice)
		}
	}
}

func TestStemNeverGrows(t *testing.T) {
	f := func(s string) bool {
		return len(Stem(s)) <= len(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProcessPipeline(t *testing.T) {
	got := Process("The patient experienced uncontrollable coughing and headaches.")
	want := []string{"uncontrol", "cough", "headach"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Process = %v, want %v", got, want)
	}
}

func TestProcessParaphraseOverlap(t *testing.T) {
	// Two paraphrased descriptions of the same event should share a
	// substantial fraction of processed tokens — the property the paper's
	// text pipeline exists to expose.
	a := Process("The subject experienced uncontrollable cough for 2 hours, then started choking and had to call an ambulance.")
	b := Process("Within hours of vaccination the patient experienced an uncontrollable cough and felt like she was choking.")
	set := make(map[string]struct{})
	for _, tok := range a {
		set[tok] = struct{}{}
	}
	shared := 0
	for _, tok := range b {
		if _, ok := set[tok]; ok {
			shared++
		}
	}
	if shared < 2 {
		t.Errorf("paraphrases share %d processed tokens, want >= 2 (a=%v b=%v)", shared, a, b)
	}
}

// TestProcessASCIIAllocs pins the text path's allocations: an ASCII
// description costs the lower-cased copy, the token slice and one buffer
// for the stems Porter changed.
func TestProcessASCIIAllocs(t *testing.T) {
	desc := "On 30 April 2013 the Patient experienced uncontrollable coughing, " +
		"headaches and Dizziness within hours of vaccination; treated with " +
		"paracetamol and hospitalised overnight. Symptoms resolved."
	if n := testing.AllocsPerRun(100, func() { Process(desc) }); n > 3 {
		t.Errorf("Process allocates %.0f times, want at most 3", n)
	}
}

// TestStemUnchangedAllocs pins Stem to no allocation for a word of up to
// stemBuf bytes that Porter leaves unchanged.
func TestStemUnchangedAllocs(t *testing.T) {
	for _, w := range []string{"cat", "headach", "aspirin", "rhabdomyolysi", strings.Repeat("b", stemBuf)} {
		if Stem(w) != w {
			t.Fatalf("Stem(%q) changed the word; pick an unchanged one", w)
		}
		if n := testing.AllocsPerRun(100, func() { Stem(w) }); n != 0 {
			t.Errorf("Stem(%q) allocates %.0f times, want 0", w, n)
		}
	}
}
