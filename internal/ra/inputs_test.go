package ra

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// operators lists one zero value of every type implementing Plan. The test
// below fails when the list falls behind the package source, so adding an
// operator means adding it here — and then answering for its children.
var operators = []Plan{
	Base{}, Temp{}, Ident{}, IdentOf{}, Compose{}, UnionAll{}, Fix{}, DescScan{},
	SelectVal{}, SelectRoot{}, Semijoin{}, Antijoin{}, Diff{}, RootSeed{},
	TypeFilter{}, RecUnion{},
}

// planTypesInSource returns the receiver type names of every isPlan method
// declared in the package — the types that implement Plan.
func planTypesInSource(t *testing.T) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name != "isPlan" || fn.Recv == nil {
					continue
				}
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				names = append(names, typ.(*ast.Ident).Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

var planType = reflect.TypeOf((*Plan)(nil)).Elem()

// plant fills every Plan-typed slot reachable from v — direct fields, slices
// of plans, and structs or slices of structs carrying plans (Tagged.Plan,
// RecEdge.Rel) — with a uniquely named Temp marker, returning the markers.
func plant(v reflect.Value, path string) []string {
	switch {
	case v.Type() == planType:
		v.Set(reflect.ValueOf(Temp{Name: path}))
		return []string{path}
	case v.Kind() == reflect.Struct:
		var marks []string
		for i := 0; i < v.NumField(); i++ {
			marks = append(marks, plant(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
		return marks
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		var marks []string
		for i := 0; i < v.Len(); i++ {
			marks = append(marks, plant(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
		if len(marks) == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		return marks
	}
	return nil
}

// TestInputsCoversEveryOperator: Inputs is the one place that lists an
// operator's children, so it must list all of them. For every type
// implementing Plan, each Plan-typed slot is filled with a marker and Inputs
// must return every marker exactly once.
func TestInputsCoversEveryOperator(t *testing.T) {
	var listed []string
	for _, op := range operators {
		listed = append(listed, reflect.TypeOf(op).Name())
	}
	sort.Strings(listed)
	if src := planTypesInSource(t); !reflect.DeepEqual(listed, src) {
		t.Fatalf("operators lists %v\nbut the package declares isPlan on %v", listed, src)
	}
	for _, op := range operators {
		v := reflect.New(reflect.TypeOf(op)).Elem()
		want := plant(v, v.Type().Name())
		var got []string
		for _, in := range Inputs(v.Interface().(Plan)) {
			mark, ok := in.(Temp)
			if !ok {
				t.Fatalf("%s: Inputs returned %v, not a planted child", v.Type().Name(), in)
			}
			got = append(got, mark.Name)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: Inputs lists %v, the type holds plans at %v", v.Type().Name(), got, want)
		}
	}
}

// TestInputsOrder pins the canonical order consumers index into: absent
// constraints are skipped, not nil-padded.
func TestInputsOrder(t *testing.T) {
	a, b, c := Base{Rel: "a"}, Base{Rel: "b"}, Base{Rel: "c"}
	for _, tc := range []struct {
		pl   Plan
		want []Plan
	}{
		{Fix{Seed: a, Start: b, End: c}, []Plan{a, b, c}},
		{Fix{Seed: a, End: c}, []Plan{a, c}},
		{DescScan{Alt: a, Start: b}, []Plan{a, b}},
		{DescScan{Alt: a}, []Plan{a}},
		{Compose{L: a, R: b}, []Plan{a, b}},
		{RecUnion{Init: []Tagged{{Plan: a}}, Edges: []RecEdge{{Rel: b}, {Rel: c}}}, []Plan{a, b, c}},
		{Ident{}, nil},
	} {
		if got := Inputs(tc.pl); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Inputs(%s) = %v, want %v", tc.pl, got, tc.want)
		}
	}
}
