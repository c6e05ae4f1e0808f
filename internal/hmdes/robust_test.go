package hmdes

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Fuzz-style robustness: random mutations of a valid source must never
// panic — every outcome is either a parsed machine or a positioned error.
func TestParserRobustToMutations(t *testing.T) {
	base := miniSPARC
	r := rand.New(rand.NewSource(1234))
	mutants := 0
	for i := 0; i < 500; i++ {
		b := []byte(base)
		// Apply 1-3 random byte mutations.
		for k := 0; k < 1+r.Intn(3); k++ {
			pos := r.Intn(len(b))
			switch r.Intn(3) {
			case 0:
				b[pos] = byte(32 + r.Intn(95)) // replace with printable
			case 1:
				b = append(b[:pos], b[pos+1:]...) // delete
			case 2:
				b = append(b[:pos], append([]byte{byte(32 + r.Intn(95))}, b[pos:]...)...) // insert
			}
		}
		mutants++
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on mutant %d: %v\n%s", i, p, b)
				}
			}()
			m, err := Load("mutant.mdes", string(b))
			if err != nil {
				var perr *Error
				if !errorsAs(err, &perr) {
					t.Fatalf("mutant %d: error without position: %v", i, err)
				}
				if perr.Line < 1 || perr.Col < 1 {
					t.Fatalf("mutant %d: bad position %d:%d", i, perr.Line, perr.Col)
				}
				return
			}
			// Parsed mutants must still be internally consistent.
			if m.Name == "" || len(m.Operations) == 0 {
				t.Fatalf("mutant %d: malformed machine accepted", i)
			}
		}()
	}
	if mutants != 500 {
		t.Fatalf("ran %d mutants", mutants)
	}
}

// errorsAs is a minimal errors.As for *Error without importing errors'
// reflective machinery into the hot path.
func errorsAs(err error, target **Error) bool {
	for err != nil {
		if e, ok := err.(*Error); ok {
			*target = e
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// Truncations at every byte boundary must error cleanly, never hang or
// panic.
func TestParserRobustToTruncation(t *testing.T) {
	src := miniSPARC
	step := len(src)/200 + 1
	for cut := 0; cut < len(src); cut += step {
		if _, err := Load("trunc.mdes", src[:cut]); err == nil && cut < len(src)-2 {
			// Only a fully-formed prefix could legitimately parse; the
			// miniSPARC source has no complete machine until its final
			// brace.
			if strings.TrimSpace(src[cut:]) != "" {
				t.Fatalf("truncation at %d parsed successfully", cut)
			}
		}
	}
}

// Negative-path diagnostics regressions: each malformed source must be
// rejected with a stable message at a stable position. These pin the
// behavior the fuzz target (FuzzHMDESParse) asserts generically — every
// rejection is a positioned *Error — to exact lines and columns, so a
// refactor that degrades an error to "syntax error at 0:0" fails here
// rather than in a fuzzing session.
func TestDiagnosticsPositions(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int
		col  int // 0 = only assert col >= 1 (analyzer errors anchor to column 1)
		msg  string
	}{
		{
			name: "lexer-illegal-char",
			src:  "machine m {\n    resource r$;\n}",
			line: 2, col: 15, msg: "unexpected character '$'",
		},
		{
			name: "parser-missing-name",
			src:  "machine m {\n    resource [3];\n}",
			line: 2, col: 14, msg: `expected resource name, found "["`,
		},
		{
			name: "parser-missing-expr",
			src:  "machine m {\n    operation o class c latency;\n}",
			line: 2, col: 32, msg: `expected expression, found ";"`,
		},
		{
			name: "duplicate-resource",
			src:  "machine m {\n    resource r;\n    resource r;\n}",
			line: 3, col: 1, msg: `duplicate resource "r"`,
		},
		{
			name: "resource-capacity",
			src:  "machine m {\n    resource B[5000];\n}",
			line: 2, col: 1, msg: "exceeds the machine capacity of 4096 resource instances",
		},
		{
			name: "choose-capacity",
			src:  "machine m {\n    resource B[24];\n    class c {\n        tree {\n            choose 12 of B @ 0;\n        }\n    }\n}",
			line: 5, col: 1, msg: "choose 12 of 24 expands to more than 16384 options",
		},
		{
			name: "usage-time-capacity",
			src:  "machine m {\n    resource r;\n    class c {\n        tree {\n            option { r @ 1025; }\n        }\n    }\n    operation o class c latency 1;\n}",
			line: 5, col: 1, msg: "usage time 1025 outside the capacity of [-1024,1024] cycles",
		},
		{
			name: "one-of-time-capacity",
			src:  "machine m {\n    resource B[2];\n    class c {\n        tree {\n            one_of B @ -1025;\n        }\n    }\n    operation o class c latency 1;\n}",
			line: 5, col: 1, msg: "usage time -1025 outside the capacity of [-1024,1024] cycles",
		},
		{
			name: "choose-time-capacity",
			src:  "machine m {\n    resource B[3];\n    class c {\n        tree {\n            choose 2 of B @ 4096;\n        }\n    }\n    operation o class c latency 1;\n}",
			line: 5, col: 1, msg: "usage time 4096 outside the capacity of [-1024,1024] cycles",
		},
		{
			name: "resource-index-range",
			src:  "machine m {\n    resource B[2];\n    class c {\n        tree {\n            option { B[5] @ 0; }\n        }\n    }\n    operation o class c latency 1;\n}",
			line: 5, col: 1, msg: "resource index B[5] out of range [0,2)",
		},
		{
			name: "empty-tree",
			src:  "machine m {\n    resource r;\n    class c {\n        tree {\n        }\n    }\n    operation o class c latency 1;\n}",
			line: 4, col: 1, msg: `tree "c#1" has no options`,
		},
		{
			name: "undefined-class",
			src:  "machine m {\n    resource r;\n    class c {\n        tree {\n            option { r @ 0; }\n        }\n    }\n    operation o class x latency 1;\n}",
			line: 8, col: 1, msg: `operation "o" references undefined class "x"`,
		},
		{
			name: "negative-latency",
			src:  "machine m {\n    resource r;\n    class c {\n        tree {\n            option { r @ 0; }\n        }\n    }\n    operation o class c latency 0-1;\n}",
			line: 8, col: 1, msg: `operation "o" latency -1 must be >= 0`,
		},
		{
			name: "src-exceeds-latency",
			src:  "machine m {\n    resource r;\n    class c {\n        tree {\n            option { r @ 0; }\n        }\n    }\n    operation o class c latency 2 src 3;\n}",
			line: 8, col: 1, msg: `operation "o" src time 3 exceeds latency 2`,
		},
		{
			name: "latency-capacity",
			src:  "machine m {\n    resource r;\n    class c {\n        tree {\n            option { r @ 0; }\n        }\n    }\n    operation o class c latency 1025;\n}",
			line: 8, col: 1, msg: `operation "o" latency 1025 exceeds the capacity of 1024 cycles`,
		},
		{
			name: "bypass-adjust-capacity",
			src:  "machine m {\n    resource r;\n    class c {\n        tree {\n            option { r @ 0; }\n        }\n    }\n    operation o class c latency 1;\n    bypass o to o adjust 2000;\n}",
			line: 9, col: 1, msg: "bypass adjustment 2000 outside the capacity of [-1024,1024] cycles",
		},
		{
			name: "bypass-undefined-op",
			src:  "machine m {\n    resource r;\n    class c {\n        tree {\n            option { r @ 0; }\n        }\n    }\n    operation o class c latency 1;\n    bypass o to q adjust 1;\n}",
			line: 9, col: 1, msg: `bypass references undefined operation "q"`,
		},
		{
			name: "no-operations",
			src:  "machine m {\n    resource r;\n}",
			line: 1, col: 1, msg: `machine "m" declares no operations`,
		},
		{
			name: "division-by-zero",
			src:  "machine m {\n    resource r;\n    let q = 1/0;\n    class c { tree { option { r @ 0; } } }\n    operation o class c latency 1;\n}",
			line: 3, col: 1, msg: "division by zero",
		},
		{
			name: "mul-overflow",
			src:  "machine m {\n    resource r;\n    class c { tree { option { r @ 0; } } }\n    operation o class c latency\n        4294967296*4294967296;\n}",
			line: 5, col: 1, msg: "constant expression 4294967296 * 4294967296 overflows",
		},
		{
			name: "add-overflow",
			src:  "machine m {\n    resource r;\n    let big = 9223372036854775807;\n    let q = big + 1;\n    class c { tree { option { r @ 0; } } }\n    operation o class c latency 1;\n}",
			line: 4, col: 1, msg: "constant expression 9223372036854775807 + 1 overflows",
		},
		{
			name: "sub-overflow",
			src:  "machine m {\n    resource r;\n    let q = 0 - 9223372036854775807 - 2;\n    class c { tree { option { r @ 0; } } }\n    operation o class c latency 1;\n}",
			line: 3, col: 1, msg: "constant expression -9223372036854775807 - 2 overflows",
		},
		{
			name: "neg-overflow",
			src:  "machine m {\n    resource r;\n    let min = 0 - 9223372036854775807 - 1;\n    let q = -min;\n    class c { tree { option { r @ 0; } } }\n    operation o class c latency 1;\n}",
			line: 4, col: 1, msg: "constant expression -(-9223372036854775808) overflows",
		},
		{
			name: "div-overflow",
			src:  "machine m {\n    resource r;\n    let min = 0 - 9223372036854775807 - 1;\n    class c { tree { option { r @ 0; } } }\n    operation o class c latency 1;\n    bypass o to o adjust min / -1;\n}",
			line: 6, col: 1, msg: "constant expression -9223372036854775808 / -1 overflows",
		},
		{
			name: "mul-minint-by-minus-one",
			src:  "machine m {\n    resource r;\n    let min = 0 - 9223372036854775807 - 1;\n    class c { tree { option { r @ min * -1; } } }\n    operation o class c latency 1;\n}",
			line: 4, col: 1, msg: "constant expression -9223372036854775808 * -1 overflows",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load("diag.mdes", tc.src)
			if err == nil {
				t.Fatal("malformed source accepted")
			}
			var perr *Error
			if !errorsAs(err, &perr) {
				t.Fatalf("rejection without position: %v", err)
			}
			if perr.Line != tc.line {
				t.Errorf("line = %d, want %d (%v)", perr.Line, tc.line, err)
			}
			if tc.col > 0 && perr.Col != tc.col {
				t.Errorf("col = %d, want %d (%v)", perr.Col, tc.col, err)
			}
			if perr.Col < 1 {
				t.Errorf("col %d < 1 (%v)", perr.Col, err)
			}
			if !strings.Contains(perr.Msg, tc.msg) {
				t.Errorf("message %q does not contain %q", perr.Msg, tc.msg)
			}
		})
	}
}

// const-overflow-2e64.mdes multiplies 2^32 by 2^32 for a usage time and
// a latency. With wrapping arithmetic it loaded as a usage at time 0 and
// latency 1, past every capacity check; it must be refused where the
// first product overflows.
func TestRefusesOverflowingConstant(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "const-overflow-2e64.mdes"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load("const-overflow-2e64.mdes", string(src))
	var perr *Error
	if !errorsAs(err, &perr) || perr.Line != 3 || !strings.Contains(perr.Msg, "4294967296 * 4294967296 overflows") {
		t.Fatalf("err = %v, want the product refused at line 3", err)
	}
}

// usage-time-2e30.mdes uses one resource 2^30 cycles after issue. Before
// the analyzer capped cycle counts it loaded, and one probe of its one
// operation grew the prober's reservation window by a row per cycle (at
// 2^22 cycles that was 191.8 MiB). It must stay refused at its usage,
// which also covers the cap on a use clause's times.
func TestRefusesHugeUsageTime(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "usage-time-2e30.mdes"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load("usage-time-2e30.mdes", string(src))
	var perr *Error
	if !errorsAs(err, &perr) || perr.Line != 3 || !strings.Contains(perr.Msg, "usage time 1073741824 outside") {
		t.Fatalf("err = %v, want the usage time refused at line 3", err)
	}
}
