// The dead-identifier gate: every exported identifier a library package
// declares is reached from non-test code somewhere in the repository, the
// benchmark module under bench/ included, or it is on unreferencedAllowed
// with one reason from a closed set.
package adrdedup_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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
// non-test file refers to them. Keys are "dir.Name" for package-level names
// and "dir.Type.Method" for methods, dir relative to the module root.
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

	"internal/cluster.FetchFailedError.Unwrap":  ifaceMethod, // errors.Is, errors.As
	"internal/cluster.StageAbortedError.Unwrap": ifaceMethod,
	"internal/rdd.maxHeap.Less":                 ifaceMethod, // container/heap
	"internal/rdd.maxHeap.Swap":                 ifaceMethod,

	"internal/core.LearnPruningThreshold": pendingItem(2), // whether pruning reaches a binary
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
	dead, stale, err := unreferencedExports(".", unreferencedAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test file refers to it: delete it, move it into a _test.go of its package, or allowlist it with a reason", key)
	}
	for _, key := range stale {
		t.Errorf("allowlist entry %s is stale: the identifier is gone or non-test code now refers to it", key)
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
	for _, tc := range []struct {
		name      string
		extra     map[string]string
		allow     []string
		wantDead  []string
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
			dead, stale, err := unreferencedExports(root, allow)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(dead) != fmt.Sprint(tc.wantDead) {
				t.Errorf("dead = %v, want %v", dead, tc.wantDead)
			}
			if fmt.Sprint(stale) != fmt.Sprint(tc.wantStale) {
				t.Errorf("stale = %v, want %v", stale, tc.wantStale)
			}
		})
	}
}

// unreferencedExports scans the module rooted at root, nested modules such
// as bench/ included. It returns, sorted, the exported identifiers declared
// in non-test files of library packages (every package but the root's and
// package main) that no non-test file refers to and allow does not list, and
// the entries of allow that name no such declaration or one that is referred
// to.
//
// The match is by name, without type information: a package-level name is
// referred to by a bare identifier in its own package or a selector on an
// import of it; a method by a selector of its name on anything that is not
// an import. Struct fields and interface methods are not declarations here.
func unreferencedExports(root string, allow map[string]keepReason) (dead, stale []string, err error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, nil, fmt.Errorf("%s/go.mod: no module line", root)
	}

	type file struct {
		dir string // relative to root, slash-separated
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(rel), f})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	decls := map[string]bool{} // key → is a method
	declIdents := map[*ast.Ident]bool{}
	for _, f := range files {
		if f.dir == "." || f.ast.Name.Name == "main" {
			continue
		}
		add := func(id *ast.Ident, key string, method bool) {
			declIdents[id] = true
			if id.IsExported() {
				decls[key] = method
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, f.dir+"."+d.Name.Name, false)
				} else {
					add(d.Name, f.dir+"."+recvTypeName(d.Recv.List[0].Type)+"."+d.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, f.dir+"."+s.Name.Name, false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, f.dir+"."+id.Name, false)
						}
					}
				}
			}
		}
	}

	refs := map[string]bool{}       // "dir.Name" referred to
	methodRefs := map[string]bool{} // method names selected on a value or type
	for _, f := range files {
		imports := map[string]string{} // local name → dir relative to root
		for _, im := range f.ast.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if ip != modPath && !strings.HasPrefix(ip, modPath+"/") {
				continue
			}
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			dir := "."
			if ip != modPath {
				dir = strings.TrimPrefix(ip, modPath+"/")
			}
			imports[local] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						refs[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				methodRefs[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declIdents[n] {
					refs[f.dir+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	for key, method := range decls {
		referred := refs[key]
		if method {
			referred = methodRefs[key[strings.LastIndexByte(key, '.')+1:]]
		}
		_, allowed := allow[key]
		switch {
		case referred && allowed:
			stale = append(stale, key)
		case !referred && !allowed:
			dead = append(dead, key)
		}
	}
	for key := range allow {
		if _, ok := decls[key]; !ok {
			stale = append(stale, key)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale, nil
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
