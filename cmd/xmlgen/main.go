// Command xmlgen generates a random XML document conforming to a DTD, with
// the two shape knobs of the paper's experiments: -xl (maximum levels) and
// -xr (maximum repeats under * / +).
//
// Usage:
//
//	xmlgen -dtd dept.dtd [-xl 4] [-xr 12] [-seed 0] [-max 0] > doc.xml
//	xmlgen -dtd dept.dtd -target-mb 512 > big.xml
//
// -max is an optional-content budget, not a size cap: once that many elements
// exist the generator adds no optional content, but required content is
// still generated, so a document can exceed it (-stats prints by how much).
//
// With -target-mb the document is streamed to stdout without ever being
// held in memory: root-level collections keep growing until the byte target
// is met, so arbitrarily large conforming documents can be produced for
// bulk-ingest experiments.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"xpath2sql"
)

func main() {
	dtdPath := flag.String("dtd", "", "path to the DTD file (required)")
	xl := flag.Int("xl", 4, "maximum number of levels (X_L)")
	xr := flag.Int("xr", 12, "maximum repeats under * or + (X_R)")
	seed := flag.Int64("seed", 0, "random seed")
	maxNodes := flag.Int("max", 0, "optional-content budget; required content can exceed it (0 = unlimited)")
	targetMB := flag.Int64("target-mb", 0, "stream a document of at least this many MiB (0 = in-memory generation)")
	stats := flag.Bool("stats", false, "print element counts to stderr")
	flag.Parse()

	if *dtdPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*dtdPath)
	if err != nil {
		fatal(err)
	}
	d, err := xpath2sql.ParseDTD(string(src))
	if err != nil {
		fatal(err)
	}

	if *targetMB > 0 {
		out := bufio.NewWriterSize(os.Stdout, 1<<20)
		st, err := xpath2sql.StreamGenerate(out, d, xpath2sql.GenStreamOptions{
			XL: *xl, XR: *xr, Seed: *seed,
			TargetBytes: *targetMB << 20,
			MaxElems:    int64(*maxNodes),
		})
		if err != nil {
			fatal(err)
		}
		if err := out.Flush(); err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Fprintf(os.Stderr, "elements: %d%s, bytes: %d\n", st.Elements, overshoot(st.Elements, *maxNodes), st.Bytes)
		}
		return
	}

	doc, err := xpath2sql.Generate(d, xpath2sql.GenOptions{XL: *xl, XR: *xr, Seed: *seed, MaxNodes: *maxNodes})
	if err != nil {
		fatal(err)
	}
	fmt.Print(doc.Serialize())
	if *stats {
		counts := map[string]int{}
		for _, n := range doc.Nodes() {
			counts[n.Label]++
		}
		fmt.Fprintf(os.Stderr, "elements: %d%s, height: %d, by type: %v\n",
			doc.Size(), overshoot(int64(doc.Size()), *maxNodes), doc.Root.Height(), counts)
	}
}

// overshoot describes how far the document went past a -max budget: required
// content is generated past it.
func overshoot(elems int64, budget int) string {
	if budget <= 0 {
		return ""
	}
	return fmt.Sprintf(" (-max %d, overshoot %d)", budget, max(0, elems-int64(budget)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmlgen:", err)
	os.Exit(1)
}
