// The dead-identifier gate: every exported identifier a library package
// declares, the root package's included, is reached from non-test code
// somewhere in the repository, the benchmark module under bench/ included,
// and every exported field of an option type is set by non-test code outside
// its package; or it is on unreferencedAllowed with one reason from a closed
// set.
package adrdedup_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keepReason is why an exported identifier that no non-test file refers to
// stays in non-test code.
type keepReason string

const (
	// oracle: a reference implementation tests compare the product against.
	oracle keepReason = "oracle"
	// testHook: another package's tests call it, so no _test.go can hold it.
	testHook keepReason = "cross-package test hook"
	// ifaceMethod: called through an interface, which a name scan cannot see.
	ifaceMethod keepReason = "interface method"
)

// pendingItem keeps an identifier whose fate an open ROADMAP item decides.
func pendingItem(n int) keepReason {
	return keepReason(fmt.Sprintf("pending ROADMAP item %d", n))
}

var pendingItemRE = regexp.MustCompile(`^pending ROADMAP item [1-9][0-9]*$`)

// unreferencedAllowed lists the exported identifiers that stay although no
// non-test file refers to them, and the option fields that stay although no
// non-test file outside their package sets them. Keys are as scanModule
// makes them.
var unreferencedAllowed = map[string]keepReason{
	"internal/candgen.BruteForcePairs": oracle,
	"internal/core.ExactClassify":      oracle,
	"internal/intern.Interner.Intern":  oracle, // per-token reference for SortedSet
	"internal/knn.NaiveJoin":           oracle,
	"internal/pairdist.Distance":       oracle,
	"internal/rdd.BoundedMin":          oracle,
	"internal/strsim.JaccardDistance":  oracle,

	"internal/adrgen.Corpus.IsDuplicatePair":      testHook, // ground truth for root and pairdist tests
	"internal/cluster.BlockStore.SpilledLen":      testHook, // rdd tests check cached partitions spilled
	"internal/cluster.Cluster.FailExecutor":       testHook, // rdd tests kill executors
	"internal/cluster.Cluster.LiveExecutors":      testHook, // rdd tests pick the executors to kill
	"internal/cluster.ShuffleService.Registered":  testHook, // root tests check Detect releases its shuffles
	"internal/cluster.TaskContext.AddComparisons": testHook, // rdd tests count comparisons under faults
	"internal/intern.Interner.Resolve":            testHook, // pairdist tests resolve IDs to tokens
	"Detector.DetectAll":                          testHook, // serve tests replay a batch with pruned pairs

	// Fault-injection knobs the rdd, core, candgen, knn and root fault
	// suites set; no product path injects task faults.
	"internal/cluster.Config.BlacklistAfterFailures":  testHook,
	"internal/cluster.Config.ExecutorRecoveryStages":  testHook,
	"internal/cluster.Config.FailureRate":             testHook,
	"internal/cluster.Config.MaxTaskRetries":          testHook,
	"internal/cluster.Config.SpeculationMinRuntimeMS": testHook,
	"internal/cluster.Config.SpeculationMultiplier":   testHook,
	"internal/serve.TrafficConfig.Reports":            testHook, // root benchmarks size the stream

	"internal/cluster.FetchFailedError.Unwrap":  ifaceMethod, // errors.Is, errors.As
	"internal/cluster.StageAbortedError.Unwrap": ifaceMethod,
	"internal/rdd.maxHeap.Less":                 ifaceMethod, // container/heap
	"internal/rdd.maxHeap.Swap":                 ifaceMethod,

	"internal/core.LearnPruningThreshold":         pendingItem(2),  // whether pruning reaches a binary
	"internal/serve.BootstrapConfig.HardFraction": pendingItem(11), // the frozen bench/trace.go reads it
	"internal/svm.Options.Epochs":                 pendingItem(17), // the SVM baseline is replaced
	"internal/svm.Options.Lambda":                 pendingItem(17),
	"internal/svm.Options.PositiveWeight":         pendingItem(17),
}

// TestNoUnreferencedExports is the gate over this repository.
func TestNoUnreferencedExports(t *testing.T) {
	for key, reason := range unreferencedAllowed {
		switch reason {
		case oracle, testHook, ifaceMethod:
		default:
			if !pendingItemRE.MatchString(string(reason)) {
				t.Errorf("allowlist entry %s: reason %q is not one of the four", key, reason)
			}
		}
	}
	res, err := scanModule(".", unreferencedAllowed)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d exported option fields", res.optionFields)
	for _, key := range res.dead {
		t.Errorf("%s is exported but no non-test file refers to it: delete it, move it into a _test.go of its package, or allowlist it with a reason", key)
	}
	for _, key := range res.unset {
		t.Errorf("option field %s is set by no non-test file outside its package: make it a constant, unexport it, or allowlist it with a reason", key)
	}
	for _, key := range res.stale {
		t.Errorf("allowlist entry %s is stale: it names nothing, or non-test code now refers to or sets it", key)
	}
}

// TestDeadcodeScanner runs the scan over a small synthetic module.
func TestDeadcodeScanner(t *testing.T) {
	base := map[string]string{
		"go.mod": "module m\n",
		"internal/lib/lib.go": `package lib

func Unused()    {}
func TestOnly()  {}
func BenchOnly() {}
func Allowed()   {}
func Used()      { helper() }
func helper()    {}
`,
		"internal/lib/lib_test.go": "package lib\n\nfunc useTestOnly() { TestOnly() }\n",
		"cmd/app/main.go":          "package main\n\nimport l \"m/internal/lib\"\n\nfunc main() { l.Used() }\n",
		"bench/go.mod":             "module m/bench\n\nrequire m v0.0.0\n\nreplace m => ../\n",
		"bench/main.go":            "package main\n\nimport \"m/internal/lib\"\n\nfunc main() { lib.BenchOnly() }\n",
	}
	// Methods are found, and a method call named Unused refers to no
	// package-level Unused.
	methods := map[string]string{
		"internal/lib/t.go":   "package lib\n\ntype T struct{}\n\nfunc (T) Dead()   {}\nfunc (*T) Called() {}\n",
		"internal/other/u.go": "package other\n\nimport \"m/internal/lib\"\n\ntype U struct{}\n\nfunc (U) Unused() {}\n\nfunc Run(u U, t *lib.T) { u.Unused(); t.Called() }\n",
		"cmd/other/main.go":   "package main\n\nimport \"m/internal/other\"\n\nfunc main() { other.Run(other.U{}, nil) }\n",
	}
	// The root package's exports are scanned like any library's.
	root := map[string]string{
		"m.go":             "package m\n\nfunc RootUsed()   {}\nfunc RootUnused() {}\n",
		"cmd/root/main.go": "package main\n\nimport \"m\"\n\nfunc main() { m.RootUsed() }\n",
	}
	// Option fields: what sets each is in its name. Plain is no option
	// type, so its unset field is not reported.
	fields := map[string]string{
		"internal/lib/config.go": `package lib

type Config struct {
	Unset, Defaulted, InTest int
	Literal, Assigned, Bench int
	Allowlisted, Nested      int
	unexported               int
}

type Plain struct{ Field int }

func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	c.unexported = 2
	return c
}

func Apply(c Config) int { return c.withDefaults().Defaulted }
`,
		"internal/lib/config_test.go": "package lib\n\nvar _ = Config{InTest: 1}\n",
		"cmd/fields/main.go": `package main

import "m/internal/lib"

type wrap struct{ cfg lib.Config }

func main() {
	c := lib.Config{Literal: 1}
	c.Assigned = 2
	w := wrap{cfg: lib.Config{}}
	(w.cfg).Nested++
	_ = lib.Plain{}
	lib.Apply(c)
}
`,
		"bench/fields.go": "package main\n\nimport \"m/internal/lib\"\n\nfunc init() { lib.Apply(lib.Config{Bench: 1}) }\n",
	}
	for _, tc := range []struct {
		name      string
		extra     map[string]string
		allow     []string
		wantDead  []string
		wantUnset []string
		wantStale []string
	}{
		{
			name:     "unused and test-only reported",
			allow:    []string{"internal/lib.Allowed"},
			wantDead: []string{"internal/lib.TestOnly", "internal/lib.Unused"},
		},
		{
			name:     "methods",
			extra:    methods,
			allow:    []string{"internal/lib.Allowed"},
			wantDead: []string{"internal/lib.T.Dead", "internal/lib.TestOnly", "internal/lib.Unused"},
		},
		{
			name:      "stale allowlist entries",
			allow:     []string{"internal/lib.Allowed", "internal/lib.Gone", "internal/lib.Used"},
			wantDead:  []string{"internal/lib.TestOnly", "internal/lib.Unused"},
			wantStale: []string{"internal/lib.Gone", "internal/lib.Used"},
		},
		{
			name:     "root package",
			extra:    root,
			allow:    []string{"internal/lib.Allowed"},
			wantDead: []string{"RootUnused", "internal/lib.TestOnly", "internal/lib.Unused"},
		},
		{
			name:      "option fields",
			extra:     fields,
			allow:     []string{"internal/lib.Allowed", "internal/lib.Config.Allowlisted"},
			wantDead:  []string{"internal/lib.TestOnly", "internal/lib.Unused"},
			wantUnset: []string{"internal/lib.Config.Defaulted", "internal/lib.Config.InTest", "internal/lib.Config.Unset"},
		},
		{
			name:  "stale field entries",
			extra: fields,
			allow: []string{"internal/lib.Allowed", "internal/lib.Config.Allowlisted",
				"internal/lib.Config.Gone", "internal/lib.Config.Literal", "internal/lib.Plain.Field"},
			wantDead:  []string{"internal/lib.TestOnly", "internal/lib.Unused"},
			wantUnset: []string{"internal/lib.Config.Defaulted", "internal/lib.Config.InTest", "internal/lib.Config.Unset"},
			wantStale: []string{"internal/lib.Config.Gone", "internal/lib.Config.Literal", "internal/lib.Plain.Field"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			for _, files := range []map[string]string{base, tc.extra} {
				for name, src := range files {
					p := filepath.Join(root, filepath.FromSlash(name))
					if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			allow := make(map[string]keepReason, len(tc.allow))
			for _, key := range tc.allow {
				allow[key] = oracle
			}
			res, err := scanModule(root, allow)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.dead) != fmt.Sprint(tc.wantDead) {
				t.Errorf("dead = %v, want %v", res.dead, tc.wantDead)
			}
			if fmt.Sprint(res.unset) != fmt.Sprint(tc.wantUnset) {
				t.Errorf("unset = %v, want %v", res.unset, tc.wantUnset)
			}
			if fmt.Sprint(res.stale) != fmt.Sprint(tc.wantStale) {
				t.Errorf("stale = %v, want %v", res.stale, tc.wantStale)
			}
		})
	}
}

// scanResult is what one scan of a module finds.
type scanResult struct {
	dead  []string // exported identifiers no non-test file refers to
	unset []string // option fields no non-test file outside their package sets
	stale []string // allowlist entries that name nothing, or something used
	// optionFields counts the exported fields of option types.
	optionFields int
}

// declKind is what a scanned declaration is, which decides what counts as
// a use of it.
type declKind int

const (
	identDecl  declKind = iota // package-level name: referred to by name
	methodDecl                 // method: a selector of its name anywhere
	fieldDecl                  // option field: set outside its package
)

// optionTypeRE matches the names of option types: their exported fields are
// the knobs callers set.
var optionTypeRE = regexp.MustCompile(`(Config|Options|Params)$`)

// scanModule scans the module rooted at root, nested modules such as bench/
// included, with two rules. It returns the findings sorted.
//
// The identifier rule reports the exported identifiers declared in non-test
// files of library packages (every package but package main) that no
// non-test file refers to. The match is by name, without type information:
// a package-level name is referred to by a bare identifier in its own
// package or a selector on an import of it; a method by a selector of its
// name on anything that is not an import. Struct fields and interface
// methods are not identifiers here.
//
// The field rule type-checks every non-test package and reports each
// exported field of an exported struct type of a library package whose name
// ends in Config, Options or Params that no non-test file outside the
// declaring package names as a composite-literal key or an assignment
// target: defaults written inside the package set nothing.
//
// Keys are "dir.Name" for package-level names, "dir.Type.Method" for methods
// and "dir.Type.Field" for option fields, dir relative to root; the root
// package's keys drop the "dir." prefix. A finding allow lists is not
// reported; an entry of allow that names no declaration, or one that is
// used, is stale.
func scanModule(root string, allow map[string]keepReason) (*scanResult, error) {
	type file struct {
		dir string // relative to root, slash-separated
		ast *ast.File
	}
	var files []file
	modules := map[string]string{} // dir holding a go.mod → module path
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if name == "go.mod" {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(src), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					modules[rel] = f[1]
				}
			}
			if modules[rel] == "" {
				return fmt.Errorf("%s: no module line", p)
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{rel, f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if modules["."] == "" {
		return nil, fmt.Errorf("%s: no go.mod", root)
	}

	// Each directory's import path is its nearest enclosing module's path
	// joined with the directory below that module's root.
	pkgFiles := map[string][]*ast.File{} // dir → files
	dirOf := map[string]string{}         // import path → dir
	for _, f := range files {
		if _, ok := pkgFiles[f.dir]; !ok {
			mod := f.dir
			for modules[mod] == "" {
				mod = path.Dir(mod)
			}
			ip := modules[mod]
			if mod != f.dir {
				ip += "/" + strings.TrimPrefix(f.dir, mod+"/")
			}
			dirOf[ip] = f.dir
		}
		pkgFiles[f.dir] = append(pkgFiles[f.dir], f.ast)
	}
	key := func(dir, name string) string {
		if dir == "." {
			return name
		}
		return dir + "." + name
	}

	decls := map[string]declKind{}
	declIdents := map[*ast.Ident]bool{}
	for _, f := range files {
		if f.ast.Name.Name == "main" {
			continue
		}
		add := func(id *ast.Ident, k string, kind declKind) {
			declIdents[id] = true
			if id.IsExported() {
				decls[k] = kind
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, key(f.dir, d.Name.Name), identDecl)
				} else {
					add(d.Name, key(f.dir, recvTypeName(d.Recv.List[0].Type)+"."+d.Name.Name), methodDecl)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, key(f.dir, s.Name.Name), identDecl)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, key(f.dir, id.Name), identDecl)
						}
					}
				}
			}
		}
	}

	refs := map[string]bool{}       // keys of package-level names referred to
	methodRefs := map[string]bool{} // method names selected on a value or type
	for _, f := range files {
		imports := map[string]string{} // local name → dir
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			dir, ok := dirOf[ip]
			if !ok {
				continue
			}
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						refs[key(dir, n.Sel.Name)] = true
						return false
					}
				}
				methodRefs[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declIdents[n] {
					refs[key(f.dir, n.Name)] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	// The field rule needs types: which struct a literal key or an
	// assigned selector names is not in the syntax.
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	imp := &treeImporter{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		files:   pkgFiles,
		dirOf:   dirOf,
		info:    info,
		checked: map[string]*types.Package{},
	}
	pkgs := map[string]*types.Package{} // dir → package
	for ip, dir := range dirOf {
		pkg, err := imp.Import(ip)
		if err != nil {
			return nil, err
		}
		pkgs[dir] = pkg
	}
	setOutside := map[*types.Var]bool{}
	for _, f := range files {
		pkg := pkgs[f.dir]
		set := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
				setOutside[v.Origin()] = true
			}
		}
		setTarget := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					set(s.Obj())
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set(info.Uses[id])
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						setTarget(lhs)
					}
				}
			case *ast.IncDecStmt:
				setTarget(n.X)
			}
			return true
		})
	}
	res := &scanResult{}
	fieldSet := map[string]bool{}
	for dir, pkg := range pkgs {
		if pkg.Name() == "main" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !optionTypeRE.MatchString(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if fld := st.Field(i); fld.Exported() {
					k := key(dir, name+"."+fld.Name())
					decls[k] = fieldDecl
					fieldSet[k] = setOutside[fld]
					res.optionFields++
				}
			}
		}
	}

	for k, kind := range decls {
		var used bool
		switch kind {
		case identDecl:
			used = refs[k]
		case methodDecl:
			used = methodRefs[k[strings.LastIndexByte(k, '.')+1:]]
		case fieldDecl:
			used = fieldSet[k]
		}
		_, allowed := allow[k]
		switch {
		case used && allowed:
			res.stale = append(res.stale, k)
		case !used && !allowed && kind == fieldDecl:
			res.unset = append(res.unset, k)
		case !used && !allowed:
			res.dead = append(res.dead, k)
		}
	}
	for k := range allow {
		if _, ok := decls[k]; !ok {
			res.stale = append(res.stale, k)
		}
	}
	sort.Strings(res.dead)
	sort.Strings(res.unset)
	sort.Strings(res.stale)
	return res, nil
}

// treeImporter type-checks the module's packages from their parsed non-test
// files, each once, and imports everything else, the standard library, from
// source.
type treeImporter struct {
	fset    *token.FileSet
	std     types.Importer
	files   map[string][]*ast.File // dir → files
	dirOf   map[string]string      // import path → dir
	info    *types.Info
	checked map[string]*types.Package // import path → package
}

func (ti *treeImporter) Import(ip string) (*types.Package, error) {
	if pkg, ok := ti.checked[ip]; ok {
		return pkg, nil
	}
	dir, ok := ti.dirOf[ip]
	if !ok {
		return ti.std.Import(ip)
	}
	conf := types.Config{Importer: ti}
	pkg, err := conf.Check(ip, ti.fset, ti.files[dir], ti.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ip, err)
	}
	ti.checked[ip] = pkg
	return pkg, nil
}

// recvTypeName is the type name of a method receiver: T for T, *T, T[P] and
// *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
