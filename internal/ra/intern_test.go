package ra

import (
	"reflect"
	"testing"
)

// attrs lists the settable non-Plan leaves (strings, bools) reachable from v:
// an operator's attributes, those of its Tagged and RecEdge entries included.
func attrs(v reflect.Value) []reflect.Value {
	switch {
	case v.Type() == planType:
		return nil
	case v.Kind() == reflect.String, v.Kind() == reflect.Bool:
		return []reflect.Value{v}
	case v.Kind() == reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			out = append(out, attrs(v.Field(i))...)
		}
		return out
	case v.Kind() == reflect.Slice:
		var out []reflect.Value
		for i := 0; i < v.Len(); i++ {
			out = append(out, attrs(v.Index(i))...)
		}
		return out
	}
	return nil
}

// flip changes an attribute to another value and returns the undo.
func flip(a reflect.Value) func() {
	old := reflect.New(a.Type()).Elem()
	old.Set(a)
	if a.Kind() == reflect.Bool {
		a.SetBool(!a.Bool())
	} else {
		a.SetString(a.String() + "'")
	}
	return func() { a.Set(old) }
}

// planted returns every operator with each operand slot holding a marker.
func planted() []reflect.Value {
	var out []reflect.Value
	for _, op := range operators {
		v := reflect.New(reflect.TypeOf(op)).Elem()
		plant(v, v.Type().Name())
		out = append(out, v)
	}
	return out
}

// TestWithInputsInvertsInputs: for every operator and every setting of one
// attribute, WithInputs(pl, Inputs(pl)) is pl — no attribute is dropped on a
// rebuild, printed or not — and WithInputs with other operands lists those.
func TestWithInputsInvertsInputs(t *testing.T) {
	for _, v := range planted() {
		as := attrs(v)
		for i := -1; i < len(as); i++ {
			if i >= 0 {
				flip(as[i])
			}
			pl := v.Interface().(Plan)
			in := Inputs(pl)
			if got := WithInputs(pl, in); !reflect.DeepEqual(got, pl) {
				t.Errorf("WithInputs(pl, Inputs(pl)) = %#v, want pl = %#v", got, pl)
			}
			other := make([]Plan, len(in))
			for j := range other {
				other[j] = Base{Rel: "other"}
			}
			if got := Inputs(WithInputs(pl, other)); len(in) > 0 && !reflect.DeepEqual(got, other) {
				t.Errorf("Inputs(WithInputs(%s, others)) = %v", pl, got)
			}
		}
	}
}

// TestInternerNumbersByPrintedForm: two plans get one number exactly when
// their String() are equal — checked for every operator against every
// change of one attribute, presence of one optional operand, and spelling of
// one leaf. What String() does not show (Fix.Desc, RecUnion.Pairs and
// ResultTag) the number does not see either.
func TestInternerNumbersByPrintedForm(t *testing.T) {
	in := NewInterner()
	// A plan is observed before the next flip: RecUnion's slices alias
	// between the value under mutation and any copy of it.
	type seen struct {
		id   int
		text string
	}
	see := func(p Plan) seen { return seen{in.ID(p), p.String()} }
	check := func(a, b seen) {
		t.Helper()
		if (a.id == b.id) != (a.text == b.text) {
			t.Errorf("numbers %d and %d for\n%s\n%s", a.id, b.id, a.text, b.text)
		}
	}
	silent := 0
	for _, v := range planted() {
		base := see(v.Interface().(Plan))
		for _, a := range attrs(v) {
			undo := flip(a)
			changed := see(v.Interface().(Plan))
			check(base, changed)
			if base.text == changed.text {
				silent++
			}
			undo()
		}
		// Operand slots: emptied where optional (nil), respelled as a leaf of
		// the same printed form, swapped for another plan.
		for _, slot := range []string{"Start", "End"} {
			if f := v.FieldByName(slot); f.IsValid() {
				old := f.Interface()
				f.Set(reflect.Zero(f.Type()))
				check(base, see(v.Interface().(Plan)))
				f.Set(reflect.ValueOf(old))
			}
		}
		pl := v.Interface().(Plan)
		ins := Inputs(pl)
		for i := range ins {
			for _, repl := range []Plan{Base{Rel: ins[i].String()}, Base{Rel: "other"}, Compose{L: ins[i], R: ins[i]}} {
				kids := append([]Plan(nil), ins...)
				kids[i] = repl
				check(base, see(WithInputs(pl, kids)))
			}
		}
		for _, other := range planted() {
			check(base, see(other.Interface().(Plan)))
		}
	}
	if silent != 3 {
		t.Errorf("%d attributes are outside the printed form, want the 3 documented ones", silent)
	}
	// One constraint, on either side: same operands in the same order.
	a, b := Base{Rel: "a"}, Base{Rel: "b"}
	check(see(Fix{Seed: a, Start: b}), see(Fix{Seed: a, End: b}))
	check(see(DescScan{Alt: a, Start: b}), see(DescScan{Alt: a, End: b}))
	check(see(Ident{}), see(Base{Rel: "Rid"}))
	check(see(RootSeed{}), see(Temp{Name: "Rroot"}))
	check(see(UnionAll{}), see(UnionAll{Kids: []Plan{UnionAll{}}}))
	if in.Lookups == 0 || in.Len() == 0 || in.Len() > in.Lookups {
		t.Errorf("Lookups = %d, Len = %d", in.Lookups, in.Len())
	}
}
