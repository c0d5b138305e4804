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
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestSourceAudit type-checks every non-test package outside bench/ and holds
// three standing rules over the source:
//
//   - Reachability: every exported identifier in internal/ has a non-test use
//     outside bench/, or an entry in reachAllow that says why it stays.
//     Interface methods, methods that satisfy one, String methods and methods
//     of types the root facade re-exports are exempt.
//   - Fields: every exported field of a struct in internal/ is read, and every
//     hook there (a func-typed field or package variable) is assigned, by
//     non-test code outside bench/, or has an entry in fieldAllow. A field
//     only its own package reads is an input: such code must give it a
//     second value (set it from another package, to a non-constant, or to
//     two different constants), or one value is a constant. Embedded and
//     JSON-tagged fields and the fields of facade types are exempt. A read
//     inside an encoder (encodeTo, encode, Encode) is not a read.
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
	findings = append(findings, auditFields(prog)...)
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
	"pipe.SetDebugDispatch":               "test seam: the transfer transcript and the golden frame digests observe every frame (ROADMAP items 3 and 12)",
	"stats.PeerStats.AddPendingTransfers": "ROADMAP item 6 gives it a caller: the receiver's report of inbound transfers",
	"sweeptest.Golden":                    "the golden-file harness: a non-test package so every package's tests can import it",
}

// fieldAllow lists the fields and hooks in internal/ that the field rules
// flag, keyed as package.Type.Field or package.variable, with the reason each
// stays.
var fieldAllow = map[string]string{
	"experiments.Config.CacheLimit": "ROADMAP item 1: only bench/ sets it, and no shard of a bench workload evicts",
	"pipe.Options.Window":           "ROADMAP item 1: only bench/ sets it, for the pipe.msg_ns.w1/w4 probes",
	"simnet.Profile.LossRate":       "ROADMAP item 12: only the loss tests and the lossy-link closed form set it",
	"vtime.Scheduler.OnDeadlock":    "ROADMAP item 8 gives it a caller",
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
	facade := prog.facadeTypes()

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

// facadeTypes returns the internal types the root facade re-exports by alias.
func (prog *auditProgram) facadeTypes() map[*types.TypeName]bool {
	facade := map[*types.TypeName]bool{}
	root := prog.byPath[auditModule].types.Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				facade[named.Obj()] = true
			}
		}
	}
	return facade
}

// auditFields reports exported fields of internal/ structs that no non-test
// code outside bench/ reads or gives a second value, hooks in internal/ that
// no such code assigns, and stale fieldAllow entries.
func auditFields(prog *auditProgram) []string {
	uses := prog.fieldUses()
	use := func(v *types.Var) fieldUse {
		if u := uses[v]; u != nil {
			return *u
		}
		return fieldUse{}
	}
	facade := prog.facadeTypes()
	var findings []string
	matched := map[string]bool{}
	report := func(key string, obj types.Object, what string) {
		if _, ok := fieldAllow[key]; ok {
			matched[key] = true
			return
		}
		findings = append(findings, fmt.Sprintf("%s: %s %s: delete it, or add it to fieldAllow with the reason it stays",
			prog.pos(obj.Pos()), key, what))
	}
	const unset = "is a hook nothing outside tests and bench/ sets"
	for _, pkg := range prog.pkgs {
		if !strings.HasPrefix(pkg.path, auditModule+"/internal/") {
			continue
		}
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Var:
				if isHook(obj) && !use(obj).set {
					report(pkg.label+"."+name, obj, unset)
				}
			case *types.TypeName:
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok || obj.IsAlias() || facade[obj] {
					continue
				}
				for i := range st.NumFields() {
					f := st.Field(i)
					u := use(f)
					key := pkg.label + "." + name + "." + f.Name()
					switch {
					case isHook(f) && !u.set:
						report(key, f, unset)
					case !f.Exported() || f.Embedded() || reflect.StructTag(st.Tag(i)).Get("json") != "":
					case !u.read:
						report(key, f, "is an exported field nothing outside tests and bench/ reads")
					case !u.readOutside && !u.varied && len(u.consts) < 2:
						report(key, f, "is an input nothing outside tests and bench/ gives a second value")
					}
				}
			}
		}
	}
	for key, why := range fieldAllow {
		if !matched[key] {
			findings = append(findings, fmt.Sprintf("fieldAllow: %s matches no flagged field or hook: delete the entry", key))
		}
		if why == "" {
			findings = append(findings, fmt.Sprintf("fieldAllow: %s gives no reason", key))
		}
	}
	return findings
}

// encoderNames are the names of the functions that write a value's fields
// into a frame.
var encoderNames = map[string]bool{"encodeTo": true, "encode": true, "Encode": true}

// isHook reports whether v holds a function.
func isHook(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Signature)
	return ok
}

// fieldUse is what the program does with one field or variable.
type fieldUse struct {
	read, readOutside bool            // some code reads it; code outside its package does
	set, varied       bool            // some code sets it; from another package, or to a non-constant
	consts            map[string]bool // the constants its own package sets it to
}

// fieldUses records, for every struct field and variable, keyed by the
// generic origin, whether code in or outside its package reads it and what
// each set assigns. A set is an assignment, a ++/--, a composite-literal
// element (keyed or positional), a var initializer or taking its address,
// which is a read too; nil counts as one constant. The outermost selector on
// the left of an assignment or ++/-- is a write, not a read; every selector
// inside it is a read. A read inside an encoder does not count: a frame field
// that only its encoder reads travels with no reader.
func (prog *auditProgram) fieldUses() map[*types.Var]*fieldUse {
	uses := map[*types.Var]*fieldUse{}
	use := func(v *types.Var) *fieldUse {
		u := uses[v.Origin()]
		if u == nil {
			u = &fieldUse{consts: map[string]bool{}}
			uses[v.Origin()] = u
		}
		return u
	}
	for _, pkg := range prog.pkgs {
		info := pkg.info
		// setVar records a set of obj to value; a nil value is not a constant.
		setVar := func(obj types.Object, value ast.Expr) {
			v, ok := obj.(*types.Var)
			if !ok {
				return
			}
			u := use(v)
			u.set = true
			switch tv := info.Types[value]; {
			case v.Pkg() != pkg.types || value == nil:
				u.varied = true
			case tv.IsNil():
				u.consts["nil"] = true
			case tv.Value != nil:
				u.consts[tv.Value.ExactString()] = true
			default:
				u.varied = true
			}
		}
		written := map[ast.Expr]bool{}
		setTarget := func(x ast.Expr, value ast.Expr) {
			x = ast.Unparen(x)
			written[x] = true
			switch x := x.(type) {
			case *ast.Ident:
				setVar(info.Uses[x], value)
			case *ast.SelectorExpr:
				setVar(info.Uses[x.Sel], value)
			}
		}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				fd, _ := decl.(*ast.FuncDecl)
				encoder := fd != nil && encoderNames[fd.Name.Name]
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							var value ast.Expr
							if (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Lhs) == len(n.Rhs) {
								value = n.Rhs[i]
							}
							setTarget(lhs, value)
						}
					case *ast.IncDecStmt:
						setTarget(n.X, nil)
					case *ast.UnaryExpr:
						if x, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
							setVar(info.Uses[x.Sel], nil)
						}
					case *ast.ValueSpec: // no rule reads a package variable's value
						if len(n.Values) > 0 {
							for _, name := range n.Names {
								setVar(info.Defs[name], nil)
							}
						}
					case *ast.CompositeLit:
						t := info.TypeOf(n)
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								setVar(info.Uses[kv.Key.(*ast.Ident)], kv.Value)
							} else {
								setVar(st.Field(i), elt)
							}
						}
					case *ast.SelectorExpr:
						if v, ok := info.Uses[n.Sel].(*types.Var); ok && v.IsField() && !written[n] && !encoder {
							u := use(v)
							u.read = true
							u.readOutside = u.readOutside || v.Pkg() != pkg.types
						}
					}
					return true
				})
			}
		}
	}
	return uses
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
