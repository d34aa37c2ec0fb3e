package dtd

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// randContent draws a production over the types a, b, c, biased towards
// starred names so the absorbing shortcut is taken, recurs or is blocked by a
// second mention about equally often.
func randContent(r *rand.Rand, depth int) Content {
	name := Name{Type: string(rune('a' + r.Intn(3)))}
	if depth == 0 {
		return name
	}
	switch r.Intn(7) {
	case 0:
		return Epsilon{}
	case 1:
		return name
	case 2:
		return Star{Item: name}
	case 3:
		return Star{Item: randContent(r, depth-1)}
	case 4:
		return Alt{Items: []Content{randContent(r, depth-1), randContent(r, depth-1)}}
	default:
		items := make([]Content, 2+r.Intn(2))
		for i := range items {
			items[i] = randContent(r, depth-1)
		}
		return Seq{Items: items}
	}
}

// TestAbsorbingStarMatchesFixpoint holds the starred-name shortcut equal to
// the plain fixpoint over random productions and child multisets — those
// where the starred type recurs elsewhere in the production included, which
// must keep peeling.
func TestAbsorbingStarMatchesFixpoint(t *testing.T) {
	check := func(c Content, m map[string]int) {
		t.Helper()
		if got, want := matchUnordered(c, m, true), matchUnordered(c, m, false); got != want {
			t.Fatalf("%s on %v: shortcut says %v, fixpoint says %v", c, m, got, want)
		}
	}
	a, b := Name{Type: "a"}, Name{Type: "b"}
	recurring := []Content{
		Seq{Items: []Content{Star{Item: a}, a}},                                       // (a*, a)
		Seq{Items: []Content{Star{Item: a}, Star{Item: a}}},                           // (a*, a*)
		Alt{Items: []Content{Star{Item: a}, Seq{Items: []Content{a, b}}}},             // (a* | (a, b))
		Star{Item: Seq{Items: []Content{Star{Item: a}, b}}},                           // (a*, b)*
		Star{Item: Alt{Items: []Content{Seq{Items: []Content{Star{Item: a}, b}}, a}}}, // ((a*, b) | a)*
	}
	for _, c := range recurring {
		for na := 0; na <= 3; na++ {
			for nb := 0; nb <= 2; nb++ {
				check(c, map[string]int{"a": na, "b": nb})
			}
		}
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		c := randContent(r, 3)
		m := map[string]int{}
		for _, typ := range []string{"a", "b", "c", "d"} { // d is in no production
			if n := r.Intn(4); n > 0 && r.Intn(3) > 0 {
				m[typ] = n
			}
		}
		check(c, m)
	}
}

// TestStarCostIsFlatInFanout: checking one more child under a collection root
// must not cost the collection's size. The plain fixpoint peels a child per
// round, so on these counts it would not finish in the test's lifetime.
func TestStarCostIsFlatInFanout(t *testing.T) {
	a, b := Name{Type: "a"}, Name{Type: "b"}
	cases := []struct {
		c    Content
		m    map[string]int
		want bool
	}{
		{Star{Item: a}, map[string]int{"a": 1 << 40}, true},
		{Seq{Items: []Content{b, Star{Item: a}}}, map[string]int{"a": 1 << 40, "b": 1}, true},
		{Seq{Items: []Content{b, Star{Item: a}}}, map[string]int{"a": 1 << 40}, false},
	}
	done := make(chan string, 1)
	go func() {
		for _, tc := range cases {
			if got := matchesUnordered(tc.c, tc.m); got != tc.want {
				done <- fmt.Sprintf("%s on %v: got %v, want %v", tc.c, tc.m, got, tc.want)
				return
			}
		}
		done <- ""
	}()
	select {
	case msg := <-done:
		if msg != "" {
			t.Fatal(msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("matching a starred name is not flat in the number of children")
	}
}
