package experiments

import (
	"fmt"

	"adrdedup/internal/adr"
	"adrdedup/internal/adrgen"
)

// Table1 shows one generated duplicate pair per perturbation mode, mirroring
// the paper's Table 1 exhibits of field-level discrepancies; "*" marks a
// field on which the two reports differ.
func Table1(corpus *adrgen.Corpus) []Table {
	byMode := map[adrgen.DuplicateMode]*adrgen.DuplicatePair{}
	for i := range corpus.Duplicates {
		d := &corpus.Duplicates[i]
		if byMode[d.Mode] == nil {
			byMode[d.Mode] = d
		}
	}
	var out []Table
	for _, mode := range []adrgen.DuplicateMode{adrgen.ChannelOverlap, adrgen.FollowUp} {
		d := byMode[mode]
		if d == nil {
			continue
		}
		a, b := corpus.Reports[d.IdxA], corpus.Reports[d.IdxB]
		t := newTable(fmt.Sprintf("Table 1: duplicate pair (%s)", mode), "", "field", "report A", "report B")
		for _, f := range [][3]string{
			{"patient age", fmt.Sprint(a.CalculatedAge), fmt.Sprint(b.CalculatedAge)},
			{"patient sex", a.Sex, b.Sex},
			{"patient state", a.ResidentialState, b.ResidentialState},
			{"onset date", a.OnsetDate, b.OnsetDate},
			{"reaction outcome description", a.ReactionOutcomeDesc, b.ReactionOutcomeDesc},
			{"drug name", a.GenericNameDesc, b.GenericNameDesc},
			{"ADR name", a.MedDRAPTName, b.MedDRAPTName},
			{"report description", truncate(a.ReportDescription, 90), truncate(b.ReportDescription, 90)},
		} {
			marker := ""
			if f[1] != f[2] {
				marker = "*"
			}
			t.add(text(marker), text(f[0]), text(f[1]), text(f[2]))
		}
		out = append(out, t)
	}
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// Table2 is the 37-field TGA schema with the selected (bold-in-paper) fields
// marked.
func Table2() Table {
	t := newTable("Table 2: TGA report schema", "#", "group", "field", "type", "selected")
	for i, f := range adr.Schema() {
		sel := ""
		if f.Selected {
			sel = "yes"
		}
		t.add(count(i+1), text(f.Group), text(f.Name), text(f.Type.String()), text(sel))
	}
	return t
}

// Table3 is the dataset summary of a corpus, in the paper's layout.
func Table3(corpus *adrgen.Corpus) (Table, error) {
	db := adr.NewDatabase()
	for _, r := range corpus.Reports {
		r.ArrivalSeq = 0
		if err := db.Add(r); err != nil {
			return Table{}, err
		}
	}
	s := db.Summarize()
	t := newTable("Table 3: dataset summary", "", "")
	t.add(text("Report Period"), text(s.ReportPeriod))
	t.add(text("Number of cases"), count(s.NumCases))
	t.add(text("Number of fields per report"), count(s.NumFields))
	t.add(text("Number of unique drugs"), count(s.UniqueDrugs))
	t.add(text("Number of unique ADRs"), count(s.UniqueADRs))
	t.add(text("Known duplicate pairs"), count(len(corpus.Duplicates)))
	return t, nil
}
