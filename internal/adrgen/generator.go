package adrgen

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"adrdedup/internal/adr"
)

// Config controls corpus generation. The zero value is filled with the TGA
// dataset's published statistics (Table 3).
type Config struct {
	// NumReports is the corpus size (Table 3: 10,382).
	NumReports int
	// DuplicatePairs is the number of injected duplicate pairs
	// (Table 3: 286). Each pair contributes two distinct reports.
	DuplicatePairs int
	// NumDrugs and NumADRs bound the lexicon sizes (Table 3: 1,366 and
	// 2,351).
	NumDrugs int
	NumADRs  int
	// Seed makes generation deterministic.
	Seed int64
	// Start and End bound report dates (paper: 1 Jul - 31 Dec 2013).
	Start time.Time
	End   time.Time
	// CampaignFraction is the share of reports that belong to reporting
	// campaigns — clusters of *distinct* patients sharing a drug, onset
	// date, state, and overlapping reactions (e.g. a mass vaccination
	// clinic). Campaign pairs are the confusable non-duplicates that make
	// real ADR duplicate detection hard. Default 0.35.
	CampaignFraction float64
	// Campaigns is the number of campaign templates (default 60).
	Campaigns int
}

func (c Config) withDefaults() Config {
	if c.NumReports <= 0 {
		c.NumReports = 10382
	}
	if c.DuplicatePairs < 0 {
		c.DuplicatePairs = 0
	} else if c.DuplicatePairs == 0 {
		c.DuplicatePairs = 286
	}
	if 2*c.DuplicatePairs > c.NumReports {
		c.DuplicatePairs = c.NumReports / 2
	}
	if c.NumDrugs <= 0 {
		c.NumDrugs = 1366
	}
	if c.NumADRs <= 0 {
		c.NumADRs = 2351
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.End.IsZero() {
		c.End = time.Date(2013, 12, 31, 0, 0, 0, 0, time.UTC)
	}
	switch {
	case c.CampaignFraction < 0 || c.CampaignFraction >= 1:
		c.CampaignFraction = 0 // negative disables campaigns
	case c.CampaignFraction == 0:
		c.CampaignFraction = 0.35
	}
	if c.Campaigns <= 0 {
		c.Campaigns = 60
	}
	return c
}

// DuplicateMode classifies how a duplicate pair arose (§1 names both
// sources).
type DuplicateMode int

const (
	// ChannelOverlap duplicates are the same event reported through two
	// channels (Table 1's examples): same facts, independently written
	// narratives, occasional data-entry errors.
	ChannelOverlap DuplicateMode = iota
	// FollowUp duplicates are follow-up reports wrongly filed as new
	// records: updated outcome, extended narrative.
	FollowUp
)

func (m DuplicateMode) String() string {
	if m == FollowUp {
		return "follow-up"
	}
	return "channel-overlap"
}

// DuplicatePair records one injected ground-truth duplicate.
type DuplicatePair struct {
	IdxA, IdxB   int // indices into Corpus.Reports
	CaseA, CaseB string
	Mode         DuplicateMode
}

// Corpus is a generated report collection plus its ground truth.
type Corpus struct {
	Config     Config
	Reports    []adr.Report
	Duplicates []DuplicatePair
	// CampaignOf maps each report index to its campaign ID, or -1 when
	// the report is not part of a campaign. Distinct reports in the same
	// campaign are the confusable non-duplicates.
	CampaignOf []int

	drugs []string
	adrs  []string
}

// Drugs returns the drug lexicon used during generation.
func (c *Corpus) Drugs() []string { return c.drugs }

// ADRs returns the reaction lexicon used during generation.
func (c *Corpus) ADRs() []string { return c.adrs }

// IsDuplicatePair reports whether reports i and j form a ground-truth
// duplicate pair.
func (c *Corpus) IsDuplicatePair(i, j int) bool {
	if i > j {
		i, j = j, i
	}
	for _, d := range c.Duplicates {
		a, b := d.IdxA, d.IdxB
		if a > b {
			a, b = b, a
		}
		if a == i && b == j {
			return true
		}
	}
	return false
}

// Generate builds a synthetic corpus. Reports are shuffled into a random
// arrival order, so the two halves of a duplicate pair are usually far apart
// in the stream — as they are in a real regulator database.
func Generate(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{
		cfg:   cfg,
		rng:   rng,
		drugs: DrugLexicon(cfg.NumDrugs),
		adrs:  ADRLexicon(cfg.NumADRs),
	}
	g.drugPos = positions(g.drugs)
	g.adrPos = positions(g.adrs)

	g.makeCampaigns()
	numBase := cfg.NumReports - cfg.DuplicatePairs
	reports := make([]adr.Report, 0, cfg.NumReports)
	campaignIDs := make([]int, 0, cfg.NumReports)
	for i := 0; i < numBase; i++ {
		r, camp := g.baseReport(i)
		reports = append(reports, r)
		campaignIDs = append(campaignIDs, camp)
	}

	// Pick distinct base reports to duplicate.
	perm := rng.Perm(numBase)
	type pendingDup struct {
		baseIdx int
		mode    DuplicateMode
	}
	pending := make([]pendingDup, 0, cfg.DuplicatePairs)
	for i := 0; i < cfg.DuplicatePairs; i++ {
		mode := ChannelOverlap
		if rng.Float64() < 0.4 {
			mode = FollowUp
		}
		pending = append(pending, pendingDup{baseIdx: perm[i], mode: mode})
	}
	dupOf := make([]int, 0, cfg.DuplicatePairs)   // index of the copy
	dupBase := make([]int, 0, cfg.DuplicatePairs) // index of the original
	modes := make([]DuplicateMode, 0, cfg.DuplicatePairs)
	for i, p := range pending {
		copyReport := g.duplicateOf(reports[p.baseIdx], numBase+i, p.mode)
		reports = append(reports, copyReport)
		campaignIDs = append(campaignIDs, campaignIDs[p.baseIdx])
		dupBase = append(dupBase, p.baseIdx)
		dupOf = append(dupOf, numBase+i)
		modes = append(modes, p.mode)
	}

	// Shuffle arrival order, tracking where each report lands.
	order := rng.Perm(len(reports))
	shuffled := make([]adr.Report, len(reports))
	shuffledCamp := make([]int, len(reports))
	newPos := make([]int, len(reports))
	for to, from := range order {
		shuffled[to] = reports[from]
		shuffledCamp[to] = campaignIDs[from]
		newPos[from] = to
	}
	for i := range shuffled {
		shuffled[i].ArrivalSeq = i
	}

	corpus := &Corpus{Config: cfg, Reports: shuffled, CampaignOf: shuffledCamp, drugs: g.drugs, adrs: g.adrs}
	for i := range dupOf {
		a, b := newPos[dupBase[i]], newPos[dupOf[i]]
		corpus.Duplicates = append(corpus.Duplicates, DuplicatePair{
			IdxA: a, IdxB: b,
			CaseA: shuffled[a].CaseNumber, CaseB: shuffled[b].CaseNumber,
			Mode: modes[i],
		})
	}
	return corpus
}

type generator struct {
	cfg       Config
	rng       *rand.Rand
	drugs     []string
	adrs      []string
	campaigns []campaign
	// drugPos and adrPos map a lexicon term to its position, built once:
	// every generated report derives three code lists from them.
	drugPos map[string]int
	adrPos  map[string]int
}

func positions(lexicon []string) map[string]int {
	pos := make(map[string]int, len(lexicon))
	for i, v := range lexicon {
		pos[v] = i
	}
	return pos
}

// campaign is a shared reporting context: one drug exposure event that many
// distinct patients report, with a common onset date, state, and reaction
// pool. Two campaign reports look deceptively duplicate-like.
type campaign struct {
	drugs   []string
	onset   string
	state   string
	adrPool []string
	// ageBase anchors the cohort: campaigns target an age band (school
	// programs, aged-care clinics), so two distinct campaign patients
	// often share the exact age — which is what makes these pairs
	// genuinely confusable with duplicates.
	ageBase int
	// sex is non-empty for single-sex campaigns (e.g. HPV programs).
	sex string
	// canonical is the reaction list most members report verbatim (web
	// form checkboxes), and template is the narrative form the campaign
	// channel produces — together they make many distinct campaign pairs
	// agree closely on both the ADR list and the description text.
	canonical []string
	template  int
}

func (g *generator) makeCampaigns() {
	g.campaigns = make([]campaign, g.cfg.Campaigns)
	for i := range g.campaigns {
		poolSize := 5 + g.rng.Intn(4)
		pool := make([]string, 0, poolSize)
		seen := make(map[string]struct{}, poolSize)
		for len(pool) < poolSize {
			a := g.adrs[g.skewedIndex(len(g.adrs))]
			if _, dup := seen[a]; dup {
				continue
			}
			seen[a] = struct{}{}
			pool = append(pool, a)
		}
		sex := ""
		if g.rng.Float64() < 0.5 {
			sex = []string{"M", "F"}[g.rng.Intn(2)]
		}
		g.campaigns[i] = campaign{
			drugs:     g.pickDrugs(),
			onset:     adr.FormatOnsetDate(g.randomDate(g.cfg.Start)),
			state:     States[g.rng.Intn(8)], // real states only
			adrPool:   pool,
			ageBase:   1 + g.rng.Intn(88),
			sex:       sex,
			canonical: pool[:3],
			template:  g.rng.Intn(numTemplates),
		}
	}
}

// skewedIndex returns an index in [0, n) biased toward small values, giving
// the drug/ADR usage distribution a realistic head-heavy shape.
func (g *generator) skewedIndex(n int) int {
	u := g.rng.Float64()
	return int(u * u * float64(n))
}

func (g *generator) pickDrugs() []string {
	n := 1
	if g.rng.Float64() < 0.25 {
		n = 2
	}
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for len(out) < n {
		d := g.drugs[g.skewedIndex(len(g.drugs))]
		if _, dup := seen[d]; dup {
			continue
		}
		seen[d] = struct{}{}
		out = append(out, d)
	}
	return out
}

func (g *generator) pickADRs() []string {
	n := 1 + g.rng.Intn(4)
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for len(out) < n {
		a := g.adrs[g.skewedIndex(len(g.adrs))]
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	return out
}

func (g *generator) randomDate(after time.Time) time.Time {
	span := g.cfg.End.Sub(after)
	if span <= 0 {
		return after
	}
	return after.Add(time.Duration(g.rng.Int63n(int64(span)/int64(24*time.Hour))) * 24 * time.Hour)
}

func (g *generator) baseReport(i int) (adr.Report, int) {
	age := 1 + g.rng.Intn(95)
	sex := "M"
	if g.rng.Float64() < 0.55 {
		sex = "F"
	}
	onset := g.randomDate(g.cfg.Start)
	reportDate := onset.Add(time.Duration(g.rng.Intn(30)) * 24 * time.Hour)
	if reportDate.After(g.cfg.End) {
		reportDate = g.cfg.End
	}
	drugs := g.pickDrugs()
	adrs := g.pickADRs()
	state := States[g.rng.Intn(len(States))]
	outcome := Outcomes[g.rng.Intn(len(Outcomes))]
	onsetStr := adr.FormatOnsetDate(onset)
	if g.rng.Float64() < 0.08 {
		onsetStr = "-" // missing onset, as in Table 1(a)
	}

	// Campaign reports share exposure context with other distinct
	// patients: same drug, onset, state, an age cohort, and overlapping
	// (often identical) reaction lists and narrative templates.
	campaignID := -1
	template := g.rng.Intn(numTemplates)
	if len(g.campaigns) > 0 && g.rng.Float64() < g.cfg.CampaignFraction {
		campaignID = g.rng.Intn(len(g.campaigns))
		camp := g.campaigns[campaignID]
		drugs = camp.drugs
		onsetStr = camp.onset
		state = camp.state
		age = camp.ageBase + g.rng.Intn(8)
		if camp.sex != "" {
			sex = camp.sex
		}
		if g.rng.Float64() < 0.2 {
			adrs = append([]string(nil), camp.canonical...)
		} else {
			n := 2 + g.rng.Intn(3)
			if n > len(camp.adrPool) {
				n = len(camp.adrPool)
			}
			perm := g.rng.Perm(len(camp.adrPool))
			adrs = make([]string, n)
			for j := 0; j < n; j++ {
				adrs[j] = camp.adrPool[perm[j]]
			}
		}
		if g.rng.Float64() < 0.6 {
			template = camp.template
		}
	}

	r := adr.Report{
		CaseNumber:          fmt.Sprintf("TGA-2013-%06d", i),
		ReportDate:          reportDate.Format("2006-01-02"),
		CalculatedAge:       age,
		Sex:                 sex,
		WeightCode:          fmt.Sprintf("W%d", g.rng.Intn(9)),
		EthnicityCode:       fmt.Sprintf("E%d", g.rng.Intn(6)),
		ResidentialState:    state,
		OnsetDate:           onsetStr,
		DateOfOutcome:       reportDate.Format("2006-01-02"),
		ReactionOutcomeCode: fmt.Sprintf("O%d", g.rng.Intn(len(Outcomes))),
		ReactionOutcomeDesc: outcome,
		SeverityCode:        fmt.Sprintf("S%d", g.rng.Intn(4)),
		SeverityDesc:        []string{"Mild", "Moderate", "Severe", "Life-threatening"}[g.rng.Intn(4)],
		TreatmentText:       "None reported",
		HospitalisationCode: fmt.Sprintf("H%d", g.rng.Intn(3)),
		HospitalisationDesc: []string{"Not hospitalised", "Hospitalised", "Unknown"}[g.rng.Intn(3)],
		MedDRAPTName:        strings.Join(adrs, ","),
		MedDRAPTCode:        ptCodes(adrs, g.adrPos),
		MedDRALLTName:       strings.Join(adrs, ","),
		MedDRALLTCode:       ptCodes(adrs, g.adrPos),
		SuspectCode:         "S1",
		SuspectDesc:         "Suspected medicine",
		TradeNameDesc:       strings.ToUpper(drugs[0]),
		TradeNameCode:       fmt.Sprintf("T%05d", g.rng.Intn(99999)),
		GenericNameDesc:     strings.Join(drugs, ","),
		GenericNameCode:     ptCodes(drugs, g.drugPos),
		DosageAmount:        fmt.Sprintf("%d", []int{5, 10, 20, 40, 80}[g.rng.Intn(5)]),
		UnitProportionCode:  "MG",
		DosageFormCode:      fmt.Sprintf("F%d", g.rng.Intn(6)),
		DosageFormDesc:      []string{"Tablet", "Capsule", "Injection", "Syrup", "Patch", "Inhaler"}[g.rng.Intn(6)],
		RouteOfAdminCode:    fmt.Sprintf("R%d", g.rng.Intn(4)),
		RouteOfAdminDesc:    []string{"Oral", "Intravenous", "Intramuscular", "Subcutaneous"}[g.rng.Intn(4)],
		DosageStartDate:     onset.AddDate(0, 0, -g.rng.Intn(60)).Format("2006-01-02"),
		ReporterType:        ReporterTypes[g.rng.Intn(len(ReporterTypes))],
		ReportTypeDesc:      "Spontaneous report",
	}
	r.ReportDescription = g.describe(r, template)
	return r, campaignID
}

// ptCodes derives stable MedDRA-style codes from lexicon positions so that
// identical terms always carry identical codes.
func ptCodes(values []string, pos map[string]int) string {
	codes := make([]string, len(values))
	for i, v := range values {
		codes[i] = fmt.Sprintf("PT%06d", pos[v])
	}
	return strings.Join(codes, ",")
}

// duplicateOf derives the second half of a duplicate pair from base,
// applying the Table 1 perturbation modes.
func (g *generator) duplicateOf(base adr.Report, i int, mode DuplicateMode) adr.Report {
	r := base
	r.CaseNumber = fmt.Sprintf("TGA-2013-%06d", i)
	r.ReporterType = ReporterTypes[g.rng.Intn(len(ReporterTypes))]
	if d, err := time.Parse("2006-01-02", base.ReportDate); err == nil {
		followUp := d.AddDate(0, 0, 1+g.rng.Intn(21))
		if followUp.After(g.cfg.End) {
			followUp = g.cfg.End
		}
		r.ReportDate = followUp.Format("2006-01-02")
	}

	switch mode {
	case ChannelOverlap:
		// Independently written narrative for the same event.
		r.ReportDescription = g.describe(r, g.rng.Intn(numTemplates))
		if g.rng.Float64() < 0.5 {
			r.ReactionOutcomeDesc = Outcomes[g.rng.Intn(len(Outcomes))]
		}
		if g.rng.Float64() < 0.12 {
			r.CalculatedAge = transposeAge(g.rng, base.CalculatedAge)
		}
		if g.rng.Float64() < 0.15 {
			r.ResidentialState = []string{"Not Known", "-"}[g.rng.Intn(2)]
		}
		if g.rng.Float64() < 0.35 {
			r.MedDRAPTName, r.MedDRAPTCode = g.perturbList(base.MedDRAPTName, base.MedDRAPTCode)
		}
		if g.rng.Float64() < 0.1 {
			r.OnsetDate = "-"
		}
	case FollowUp:
		// Same narrative extended with an update; outcome progresses;
		// the onset date is often corrected or refined by the
		// follow-up, so the categorical onset field frequently
		// mismatches the original.
		r.ReportDescription = g.extendDescription(base.ReportDescription, r)
		if g.rng.Float64() < 0.8 {
			r.ReactionOutcomeDesc = []string{"Recovered", "Recovering", "Recovered With Sequelae"}[g.rng.Intn(3)]
		}
		if g.rng.Float64() < 0.8 {
			// Follow-ups recode reactions after diagnosis: the
			// preliminary symptom terms are replaced with the
			// diagnosed condition (Table 1(a): myalgia/weakness
			// becomes rhabdomyolysis), so the ADR list often moves
			// far from the original.
			r.MedDRAPTName, r.MedDRAPTCode = g.recodeList(base.MedDRAPTName)
		}
		if g.rng.Float64() < 0.5 {
			if t, err := time.Parse(adr.DateLayout, base.OnsetDate); err == nil {
				r.OnsetDate = adr.FormatOnsetDate(t.AddDate(0, 0, 1+g.rng.Intn(3)))
			} else {
				r.OnsetDate = adr.FormatOnsetDate(g.randomDate(g.cfg.Start))
			}
		}
	}
	return r
}

// transposeAge simulates the handwriting misread of Table 1(b) (84 vs 34):
// the leading digit is replaced.
func transposeAge(rng *rand.Rand, age int) int {
	if age < 10 {
		return age + 10*(1+rng.Intn(8))
	}
	s := []byte(fmt.Sprintf("%d", age))
	orig := s[0]
	for s[0] == orig {
		s[0] = byte('1' + rng.Intn(9))
	}
	var out int
	fmt.Sscanf(string(s), "%d", &out)
	return out
}

// recodeList replaces most of a reaction list with newly coded terms,
// keeping at most one original term — the follow-up diagnosis recoding.
func (g *generator) recodeList(names string) (string, string) {
	ns := adr.SplitMulti(names)
	var kept []string
	if len(ns) > 0 && g.rng.Float64() < 0.5 {
		kept = append(kept, ns[g.rng.Intn(len(ns))])
	}
	target := len(kept) + 1 + g.rng.Intn(2)
	seen := make(map[string]struct{}, target)
	for _, k := range kept {
		seen[k] = struct{}{}
	}
	for len(kept) < target {
		a := g.adrs[g.skewedIndex(len(g.adrs))]
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		kept = append(kept, a)
	}
	return strings.Join(kept, ","), ptCodes(kept, g.adrPos)
}

// perturbList reorders the comma-separated reaction list and drops or adds
// one term, keeping codes consistent with names.
func (g *generator) perturbList(names, codes string) (string, string) {
	rng := g.rng
	ns := adr.SplitMulti(names)
	cs := adr.SplitMulti(codes)
	if len(ns) == 0 {
		return names, codes
	}
	type term struct{ name, code string }
	terms := make([]term, len(ns))
	for i := range ns {
		code := ""
		if i < len(cs) {
			code = cs[i]
		}
		terms[i] = term{ns[i], code}
	}
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	switch {
	case len(terms) > 1 && rng.Float64() < 0.5:
		terms = terms[:len(terms)-1] // dropped symptom
	case rng.Float64() < 0.5:
		extra := g.adrs[rng.Intn(len(g.adrs))]
		terms = append(terms, term{extra, fmt.Sprintf("PT%06d", g.adrPos[extra])})
	}
	outN := make([]string, len(terms))
	outC := make([]string, len(terms))
	for i, t := range terms {
		outN[i] = t.name
		outC[i] = t.code
	}
	return strings.Join(outN, ","), strings.Join(outC, ",")
}
