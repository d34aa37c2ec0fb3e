package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDialectFlag: -dialect goes through xpath2sql.ParseDialect, so every
// name it accepts selects its rendering and any other exits 2 with its error
// before anything is translated.
func TestDialectFlag(t *testing.T) {
	for _, c := range []struct {
		dialect string
		code    int
		want    string // in stdout (code 0) or stderr
	}{
		{"db2", 0, "WITH RECURSIVE"},
		{"DB2", 0, "WITH RECURSIVE"},
		{"sql99", 0, "WITH RECURSIVE"},
		{"oracle", 0, "CONNECT BY"},
		{"Oracle", 0, "CONNECT BY"},
		{"mssql", 2, `unknown SQL dialect: "mssql"`},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-dtd", "../../testdata/dept.dtd", "-query", "dept//project", "-dialect", c.dialect}, &stdout, &stderr)
		out := stdout.String()
		if code != 0 {
			out = stderr.String()
		}
		if code != c.code || !strings.Contains(out, c.want) {
			t.Errorf("-dialect %s: exit %d, output %q; want exit %d and %q", c.dialect, code, out, c.code, c.want)
		}
		if c.code != 0 && stdout.Len() > 0 {
			t.Errorf("-dialect %s: printed %q before failing", c.dialect, stdout.String())
		}
	}
}
