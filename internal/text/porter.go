package text

// stemBuf is the longest word stem handles in a stack buffer without
// allocating.
const stemBuf = 32

// stem reduces an English word to its root form using the Porter stemming
// algorithm (Porter, 1980). It runs in buf's storage (on the heap when word
// does not fit) and returns the stem and whether it differs from word. The
// input is expected to be a lowercase token as produced by Tokenize; words
// shorter than three letters and tokens containing non a-z characters are
// returned unchanged, matching the reference implementation's behaviour.
func stem(buf []byte, word string) ([]byte, bool) {
	if len(word) <= 2 {
		return nil, false
	}
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || word[i] > 'z' {
			return nil, false
		}
	}
	s := stemmer{b: append(buf[:0], word...), k: len(word) - 1}
	s.step1ab()
	// step1ab can strip the word down to a single letter (e.g. "aed" →
	// "a"); the remaining steps all inspect b[k-1] and require at least
	// two letters, so stop here — found by FuzzStem.
	if s.k > 0 {
		s.step1c()
		s.step2()
		s.step3()
		s.step4()
		s.step5()
	}
	b := s.b[:s.k+1]
	return b, string(b) != word
}

// stemmer is a direct port of Porter's reference implementation. b[0..k]
// holds the word being stemmed; j is a general offset into the word.
type stemmer struct {
	b []byte
	k int
	j int
}

// cons reports whether b[i] is a consonant.
func (s *stemmer) cons(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.cons(i - 1)
	}
	return true
}

// m measures the number of consonant-vowel sequences between 0 and j.
func (s *stemmer) m() int {
	n := 0
	i := 0
	for {
		if i > s.j {
			return n
		}
		if !s.cons(i) {
			break
		}
		i++
	}
	i++
	for {
		for {
			if i > s.j {
				return n
			}
			if s.cons(i) {
				break
			}
			i++
		}
		i++
		n++
		for {
			if i > s.j {
				return n
			}
			if !s.cons(i) {
				break
			}
			i++
		}
		i++
	}
}

// vowelInStem reports whether b[0..j] contains a vowel.
func (s *stemmer) vowelInStem() bool {
	for i := 0; i <= s.j; i++ {
		if !s.cons(i) {
			return true
		}
	}
	return false
}

// doubleC reports whether b[i-1..i] is a double consonant.
func (s *stemmer) doubleC(i int) bool {
	if i < 1 {
		return false
	}
	if s.b[i] != s.b[i-1] {
		return false
	}
	return s.cons(i)
}

// cvc reports whether b[i-2..i] is consonant-vowel-consonant and the final
// consonant is not w, x or y. Used to restore a trailing e (e.g. cav(e),
// lov(e), hop(e)).
func (s *stemmer) cvc(i int) bool {
	if i < 2 || !s.cons(i) || s.cons(i-1) || !s.cons(i-2) {
		return false
	}
	switch s.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// ends reports whether b[0..k] ends with suffix, setting j on success.
func (s *stemmer) ends(suffix string) bool {
	l := len(suffix)
	o := s.k - l + 1
	if o < 0 {
		return false
	}
	for i := 0; i < l; i++ {
		if s.b[o+i] != suffix[i] {
			return false
		}
	}
	s.j = s.k - l
	return true
}

// setTo replaces b[j+1..k] with t and adjusts k.
func (s *stemmer) setTo(t string) {
	l := len(t)
	o := s.j + 1
	for i := 0; i < l; i++ {
		s.b[o+i] = t[i]
	}
	s.k = s.j + l
}

// r replaces the suffix with t when m() > 0.
func (s *stemmer) r(t string) {
	if s.m() > 0 {
		s.setTo(t)
	}
}

// step1ab removes plurals and -ed or -ing:
// caresses→caress, ponies→poni, ties→ti, caress→caress, cats→cat,
// feed→feed, agreed→agree, plastered→plaster, motoring→motor.
func (s *stemmer) step1ab() {
	if s.b[s.k] == 's' {
		switch {
		case s.ends("sses"):
			s.k -= 2
		case s.ends("ies"):
			s.setTo("i")
		case s.b[s.k-1] != 's':
			s.k--
		}
	}
	if s.ends("eed") {
		if s.m() > 0 {
			s.k--
		}
	} else if (s.ends("ed") || s.ends("ing")) && s.vowelInStem() {
		s.k = s.j
		switch {
		case s.ends("at"):
			s.setTo("ate")
		case s.ends("bl"):
			s.setTo("ble")
		case s.ends("iz"):
			s.setTo("ize")
		case s.doubleC(s.k):
			s.k--
			switch s.b[s.k] {
			case 'l', 's', 'z':
				s.k++
			}
		default:
			if s.m() == 1 && s.cvc(s.k) {
				s.setTo("e")
			}
		}
	}
}

// step1c turns terminal y to i when there is another vowel in the stem.
func (s *stemmer) step1c() {
	if s.ends("y") && s.vowelInStem() {
		s.b[s.k] = 'i'
	}
}

// step2 maps double suffixes to single ones when m() > 0:
// -ization → -ize, -ational → -ate, etc.
func (s *stemmer) step2() {
	switch s.b[s.k-1] {
	case 'a':
		if s.ends("ational") {
			s.r("ate")
		} else if s.ends("tional") {
			s.r("tion")
		}
	case 'c':
		if s.ends("enci") {
			s.r("ence")
		} else if s.ends("anci") {
			s.r("ance")
		}
	case 'e':
		if s.ends("izer") {
			s.r("ize")
		}
	case 'l':
		if s.ends("bli") {
			s.r("ble")
		} else if s.ends("alli") {
			s.r("al")
		} else if s.ends("entli") {
			s.r("ent")
		} else if s.ends("eli") {
			s.r("e")
		} else if s.ends("ousli") {
			s.r("ous")
		}
	case 'o':
		if s.ends("ization") {
			s.r("ize")
		} else if s.ends("ation") {
			s.r("ate")
		} else if s.ends("ator") {
			s.r("ate")
		}
	case 's':
		if s.ends("alism") {
			s.r("al")
		} else if s.ends("iveness") {
			s.r("ive")
		} else if s.ends("fulness") {
			s.r("ful")
		} else if s.ends("ousness") {
			s.r("ous")
		}
	case 't':
		if s.ends("aliti") {
			s.r("al")
		} else if s.ends("iviti") {
			s.r("ive")
		} else if s.ends("biliti") {
			s.r("ble")
		}
	case 'g':
		if s.ends("logi") {
			s.r("log")
		}
	}
}

// step3 deals with -ic-, -full, -ness etc., like step2.
func (s *stemmer) step3() {
	switch s.b[s.k] {
	case 'e':
		if s.ends("icate") {
			s.r("ic")
		} else if s.ends("ative") {
			s.r("")
		} else if s.ends("alize") {
			s.r("al")
		}
	case 'i':
		if s.ends("iciti") {
			s.r("ic")
		}
	case 'l':
		if s.ends("ical") {
			s.r("ic")
		} else if s.ends("ful") {
			s.r("")
		}
	case 's':
		if s.ends("ness") {
			s.r("")
		}
	}
}

// step4 removes -ant, -ence etc. when m() > 1.
func (s *stemmer) step4() {
	switch s.b[s.k-1] {
	case 'a':
		if !s.ends("al") {
			return
		}
	case 'c':
		if !s.ends("ance") && !s.ends("ence") {
			return
		}
	case 'e':
		if !s.ends("er") {
			return
		}
	case 'i':
		if !s.ends("ic") {
			return
		}
	case 'l':
		if !s.ends("able") && !s.ends("ible") {
			return
		}
	case 'n':
		if !s.ends("ant") && !s.ends("ement") && !s.ends("ment") && !s.ends("ent") {
			return
		}
	case 'o':
		if s.ends("ion") && s.j >= 0 && (s.b[s.j] == 's' || s.b[s.j] == 't') {
			// keep
		} else if !s.ends("ou") {
			return
		}
	case 's':
		if !s.ends("ism") {
			return
		}
	case 't':
		if !s.ends("ate") && !s.ends("iti") {
			return
		}
	case 'u':
		if !s.ends("ous") {
			return
		}
	case 'v':
		if !s.ends("ive") {
			return
		}
	case 'z':
		if !s.ends("ize") {
			return
		}
	default:
		return
	}
	if s.m() > 1 {
		s.k = s.j
	}
}

// step5 removes a final -e when m() > 1, and changes -ll to -l when m() > 1.
func (s *stemmer) step5() {
	s.j = s.k
	if s.b[s.k] == 'e' {
		a := s.m()
		if a > 1 || a == 1 && !s.cvc(s.k-1) {
			s.k--
		}
	}
	if s.b[s.k] == 'l' && s.doubleC(s.k) && s.m() > 1 {
		s.k--
	}
}
