package peerlab

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSourceAudit type-checks every non-test package outside bench/ and holds
// two standing rules over the source:
//
//   - Reachability: every exported identifier in internal/ has a non-test use
//     outside bench/, or an entry in reachAllow that says why it stays.
//     Interface methods, methods that satisfy one, String methods and methods
//     of types the root facade re-exports are exempt.
//   - Determinism: every range over a map is in mapRangeAllow with its reason;
//     go statements stay in realnet and the experiments worker pool; the wall
//     clock stays in realnet; nothing draws from math/rand's global source.
//
// An allowlist entry that matches nothing fails too, so the lists only shrink
// with the code they excuse.
func TestSourceAudit(t *testing.T) {
	prog, err := loadAuditProgram()
	if err != nil {
		t.Fatal(err)
	}
	var findings []string
	findings = append(findings, auditReachability(prog)...)
	findings = append(findings, auditDeterminism(prog)...)
	slices.Sort(findings)
	for _, f := range findings {
		t.Error(f)
	}
}

// benchProbe marks an identifier only bench/ and tests call; it goes with its
// probe.
const benchProbe = "bench probe, goes with ROADMAP item 1"

// reachAllow lists the exported identifiers in internal/ that only tests or
// bench/ use, keyed as package.Name or package.Type.Method, with the reason
// each stays.
var reachAllow = map[string]string{
	"core.NewQuickPeer":          benchProbe,
	"jxta.Cache.Query":           benchProbe,
	"jxta.Cache.Sweep":           benchProbe,
	"pipe.Conn.Retransmissions":  benchProbe,
	"pipe.Mux.Accept":            benchProbe,
	"scenario.Deploy":            benchProbe,
	"simnet.Network.MustAddNode": benchProbe,
	"simnet.Network.Stats":       benchProbe,
	"stats.NewUnion":             benchProbe,
	"stats.PeerStats.Peer":       benchProbe,
	"stats.Union.Snapshots":      benchProbe,
	"vtime.Pool.Stats":           benchProbe,

	"vtime.Scheduler.Pending":             "test seam: the property and timer differential tests check the pending timers",
	"vtime.Scheduler.Running":             "test seam: the property and dispatch tests check that nothing is left runnable",
	"vtime.Scheduler.SetPool":             "test seam: a private pool keeps a test's pool counters its own",
	"pipe.SetDebugDispatch":               "test seam: the transfer transcript observes every frame (ROADMAP item 12 reuses it)",
	"stats.PeerStats.AddPendingTransfers": "ROADMAP item 6 gives it a caller: the receiver's report of inbound transfers",
	"sweeptest.Golden":                    "the golden-file harness: a non-test package so every package's tests can import it",
}

// Reasons a range over a map cannot make output depend on iteration order.
const (
	collectThenSort = "collect-then-sort: a sort fixes the order before anything reads what the loop gathered"
	orderFree       = "order-free: every order has the same effect (a reduction with a total tie-break, or independent closes)"
	mapWritesOnly   = "writes only into maps"
)

// mapRangeAllow lists every range over a map in non-test code outside bench/,
// keyed by package and enclosing function. A function with two such loops is
// listed twice.
var mapRangeAllow = []struct{ fn, why string }{
	{"core.NewQuickPeer", collectThenSort},
	{"jxta.Cache.oldestLocked", orderFree},
	{"pipe.Mux.Close", collectThenSort},
	{"realnet.Host.Close", orderFree},
	{"realnet.Host.Close", orderFree},
	{"realnet.Host.forgetConn", mapWritesOnly},
	{"realnet.NewHost", mapWritesOnly},
	{"stats.Registry.Names", collectThenSort},
	{"workload.NewSchedule", mapWritesOnly},
	{"workload.Schedule.Initial", collectThenSort},
}

// auditModule is the module path go.mod declares.
const auditModule = "peerlab"

type auditPkg struct {
	path  string // import path
	label string // last element of the import path: the key prefix
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type auditProgram struct {
	fset   *token.FileSet
	pkgs   []*auditPkg // sorted by import path
	byPath map[string]*auditPkg
	std    types.Importer
}

// loadAuditProgram parses the non-test Go files of every package outside
// bench/ and type-checks them from source, standard library included, so the
// audit needs no build cache and no network.
func loadAuditProgram() (*auditProgram, error) {
	fset := token.NewFileSet()
	prog := &auditProgram{fset: fset, byPath: map[string]*auditPkg{}, std: importer.ForCompiler(fset, "source", nil)}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, filepath.ToSlash(p), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		ip := auditModule
		if dir != "." {
			ip += "/" + dir
		}
		pkg := prog.byPath[ip]
		if pkg == nil {
			pkg = &auditPkg{path: ip, label: path.Base(ip)}
			prog.byPath[ip] = pkg
			prog.pkgs = append(prog.pkgs, pkg)
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(prog.pkgs, func(a, b *auditPkg) int { return strings.Compare(a.path, b.path) })
	for _, pkg := range prog.pkgs {
		if _, err := prog.Import(pkg.path); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// Import type-checks a module package on first import and hands every other
// path to the source importer.
func (prog *auditProgram) Import(ip string) (*types.Package, error) {
	pkg := prog.byPath[ip]
	if pkg == nil {
		return prog.std.Import(ip)
	}
	if pkg.types == nil {
		pkg.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: prog}
		tp, err := conf.Check(ip, prog.fset, pkg.files, pkg.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", ip, err)
		}
		pkg.types = tp
	}
	return pkg.types, nil
}

func (prog *auditProgram) pos(p token.Pos) string {
	pos := prog.fset.Position(p)
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// auditReachability reports exported identifiers in internal/ that no
// non-test code outside bench/ uses, and stale reachAllow entries.
func auditReachability(prog *auditProgram) []string {
	used := map[types.Object]bool{}
	for _, pkg := range prog.pkgs {
		for _, obj := range pkg.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin() // a method of an instantiated generic type
			}
			used[obj] = true
		}
	}
	ifaces := prog.interfaces()
	facade := map[*types.TypeName]bool{}
	root := prog.byPath[auditModule].types.Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				facade[named.Obj()] = true
			}
		}
	}

	var findings []string
	matched := map[string]bool{}
	report := func(key string, obj types.Object) {
		if _, ok := reachAllow[key]; ok {
			matched[key] = true
			return
		}
		findings = append(findings, fmt.Sprintf("%s: %s is exported, but nothing outside tests and bench/ uses it: delete it, or add it to reachAllow with the reason it stays",
			prog.pos(obj.Pos()), key))
	}
	for _, pkg := range prog.pkgs {
		if !strings.HasPrefix(pkg.path, auditModule+"/internal/") {
			continue
		}
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(pkg.label+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || facade[tn] {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				m := named.Method(i)
				if m.Exported() && m.Name() != "String" && !used[m] && !satisfiesInterface(named, m, ifaces) {
					report(auditFuncKey(pkg.label, m), m)
				}
			}
		}
	}
	for key, why := range reachAllow {
		if !matched[key] {
			findings = append(findings, fmt.Sprintf("reachAllow: %s matches no unused exported identifier: delete the entry", key))
		}
		if why == "" {
			findings = append(findings, fmt.Sprintf("reachAllow: %s gives no reason", key))
		}
	}
	return findings
}

// interfaces returns, by method name, every named interface declared in the
// program, every exported one of a package it imports, and error.
func (prog *auditProgram) interfaces() map[string][]*types.Interface {
	ifaces := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	add := func(scope *types.Scope, exportedOnly bool) {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || exportedOnly && !tn.Exported() {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := range iface.NumMethods() {
				m := iface.Method(i).Name()
				ifaces[m] = append(ifaces[m], iface)
			}
		}
	}
	add(types.Universe, false)
	for _, pkg := range prog.pkgs {
		add(pkg.types.Scope(), false)
	}
	for _, pkg := range prog.pkgs {
		for _, p := range pkg.types.Imports() {
			if prog.byPath[p.Path()] == nil && !seen[p] {
				seen[p] = true
				add(p.Scope(), true)
			}
		}
	}
	return ifaces
}

// satisfiesInterface reports whether m is one of the methods through which
// named, or a pointer to it, implements some interface.
func satisfiesInterface(named *types.Named, m *types.Func, ifaces map[string][]*types.Interface) bool {
	for _, iface := range ifaces[m.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// auditDeterminism reports map ranges missing from mapRangeAllow (and stale
// entries), go statements outside the places allowed to start goroutines,
// wall-clock reads outside realnet, and draws from math/rand's global source.
func auditDeterminism(prog *auditProgram) []string {
	ranges := map[string]int{}
	first := map[string]token.Pos{}
	var findings []string
	for _, pkg := range prog.pkgs {
		realnet := pkg.path == auditModule+"/internal/realnet"
		for _, f := range pkg.files {
			file := prog.fset.Position(f.Pos()).Filename
			mayGo := realnet || file == "internal/experiments/runner.go" || file == "internal/experiments/figures.go"
			for _, decl := range f.Decls {
				fn := pkg.label + ".(package scope)"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = auditFuncKey(pkg.label, pkg.info.Defs[fd.Name].(*types.Func))
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.RangeStmt:
						if _, ok := pkg.info.TypeOf(n.X).Underlying().(*types.Map); ok {
							if ranges[fn] == 0 {
								first[fn] = n.Pos()
							}
							ranges[fn]++
						}
					case *ast.GoStmt:
						if !mayGo {
							findings = append(findings, fmt.Sprintf("%s: go statement in %s: only realnet and the experiments worker pool start goroutines",
								prog.pos(n.Pos()), fn))
						}
					case *ast.Ident:
						obj, ok := pkg.info.Uses[n].(*types.Func)
						if !ok || obj.Pkg() == nil {
							break
						}
						switch p := obj.Pkg().Path(); {
						case p == "time" && !realnet && (obj.Name() == "Now" || obj.Name() == "Since" || obj.Name() == "Until"):
							findings = append(findings, fmt.Sprintf("%s: time.%s in %s: only realnet reads the wall clock; take the time from the host",
								prog.pos(n.Pos()), obj.Name(), fn))
						case (p == "math/rand" || p == "math/rand/v2") && obj.Signature().Recv() == nil && !strings.HasPrefix(obj.Name(), "New"):
							findings = append(findings, fmt.Sprintf("%s: rand.%s in %s draws from the global source; draw from a transport.NewRand stream",
								prog.pos(n.Pos()), obj.Name(), fn))
						}
					}
					return true
				})
			}
		}
	}
	allowed := map[string]int{}
	for _, e := range mapRangeAllow {
		allowed[e.fn]++
		if e.why != collectThenSort && e.why != orderFree && e.why != mapWritesOnly {
			findings = append(findings, fmt.Sprintf("mapRangeAllow: %s gives %q, not one of the three reasons", e.fn, e.why))
		}
	}
	for fn, n := range ranges {
		if n > allowed[fn] {
			findings = append(findings, fmt.Sprintf("%s: range over a map in %s (%d in the function, %d allowed): sort before the order shows, or add it to mapRangeAllow with its reason",
				prog.pos(first[fn]), fn, n, allowed[fn]))
		}
	}
	for fn, n := range allowed {
		if n > ranges[fn] {
			findings = append(findings, fmt.Sprintf("mapRangeAllow: %s lists %d map ranges but the function has %d: delete the extra entries", fn, n, ranges[fn]))
		}
	}
	return findings
}

// auditFuncKey names a function as package.Func or package.Type.Method.
func auditFuncKey(label string, fn *types.Func) string {
	recv := fn.Signature().Recv()
	if recv == nil {
		return label + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return label + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
