// Command xpath2sql translates an XPath query over a (possibly recursive)
// DTD into a sequence of SQL queries with a simple least-fixpoint operator.
//
// Usage:
//
//	xpath2sql -dtd dept.dtd -query 'dept//project' [-strategy X|E|R]
//	          [-dialect db2|oracle] [-show exp,ra,sql]
//
// With -show exp the intermediate extended-XPath query is printed, with
// -show ra the relational-algebra statement sequence, and with -show sql
// (default) the SQL text. A usage error — a missing flag, an unknown dialect
// — exits 2, a failed translation 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xpath2sql"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command over its arguments, returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("xpath2sql", flag.ContinueOnError)
	flags.SetOutput(stderr)
	dtdPath := flags.String("dtd", "", "path to the DTD file (required)")
	query := flags.String("query", "", "XPath query (required)")
	strategy := flags.String("strategy", "X", "translation strategy: X (CycleEX), E (CycleE), R (SQLGen-R)")
	dialect := flags.String("dialect", "db2", "SQL dialect for the LFP operator: db2 (or sql99) or oracle")
	show := flags.String("show", "sql", "comma-separated outputs: exp, ra, sql")
	noPush := flags.Bool("nopush", false, "disable pushing selections into the LFP operator")
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *dtdPath == "" || *query == "" {
		flags.Usage()
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "xpath2sql:", err)
		return code
	}
	dl, err := xpath2sql.ParseDialect(*dialect)
	if err != nil {
		return fail(2, err)
	}
	src, err := os.ReadFile(*dtdPath)
	if err != nil {
		return fail(1, err)
	}
	d, err := xpath2sql.ParseDTD(string(src))
	if err != nil {
		return fail(1, err)
	}
	opts := xpath2sql.DefaultOptions()
	switch strings.ToUpper(*strategy) {
	case "X":
		opts.Strategy = xpath2sql.StrategyCycleEX
	case "E":
		opts.Strategy = xpath2sql.StrategyCycleE
	case "R":
		opts.Strategy = xpath2sql.StrategySQLGenR
	default:
		return fail(1, fmt.Errorf("unknown strategy %q", *strategy))
	}
	opts.SQL.PushSelections = !*noPush
	eng := xpath2sql.New(d, xpath2sql.WithOptions(opts))
	tr, err := eng.TranslateString(context.Background(), *query)
	if err != nil {
		return fail(1, err)
	}
	for _, what := range strings.Split(*show, ",") {
		switch strings.TrimSpace(what) {
		case "exp":
			if eq := tr.ExtendedXPath(); eq != nil {
				fmt.Fprintln(stdout, "-- extended XPath --")
				fmt.Fprint(stdout, eq.String())
			} else {
				fmt.Fprintln(stdout, "-- (SQLGen-R bypasses extended XPath) --")
			}
		case "ra":
			fmt.Fprintln(stdout, "-- relational algebra --")
			fmt.Fprint(stdout, tr.Program().String())
		case "sql":
			sql, err := tr.SQL(dl)
			if err != nil {
				return fail(1, err)
			}
			fmt.Fprint(stdout, sql)
		case "":
		default:
			return fail(1, fmt.Errorf("unknown -show item %q", what))
		}
	}
	return 0
}
