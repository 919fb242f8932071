package harness

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseBench parses `go test -bench` output into package-qualified
// results. A benchmark line looks like:
//
//	BenchmarkPartition-8  100  11905132 ns/op  4477032 B/op  85333 allocs/op
//
// preceded somewhere above by a `pkg: secreta/internal/privacy` header
// line that qualifies the names. Skipped benchmarks ("--- SKIP:
// BenchmarkX" followed by an indented reason line) are captured so a
// comparison can tell "skipped on this box" from "vanished". A duplicate
// qualified name is an error — a silent duplicate would make baseline
// joins pick an arbitrary record.
func ParseBench(r io.Reader) (*Parsed, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	out := &Parsed{}
	seen := make(map[string]bool)
	pkg := ""
	lastLog := "" // most recent indented b.Skipf/b.Logf line
	var pendingSkip *Skip
	for sc.Scan() {
		line := sc.Text()
		// Under -v the reason precedes the SKIP header as an indented
		// "file.go:NN: reason" log line; in other layouts it follows the
		// header. Accept both: remember the last log line seen, and let a
		// trailing one overwrite an empty reason.
		if pendingSkip != nil {
			if trimmed := strings.TrimSpace(line); pendingSkip.Reason == "" &&
				strings.HasPrefix(line, " ") && trimmed != "" {
				pendingSkip.Reason = stripLogSite(trimmed)
			}
			out.Skips = append(out.Skips, *pendingSkip)
			pendingSkip = nil
		}
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(line, " ") && trimmed != "" {
			lastLog = stripLogSite(trimmed)
		}
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "--- SKIP: Benchmark"):
			name := strings.TrimSpace(strings.TrimPrefix(line, "--- SKIP:"))
			if i := strings.IndexByte(name, ' '); i >= 0 {
				name = name[:i]
			}
			pendingSkip = &Skip{Name: qualify(pkg, name), Reason: lastLog}
			lastLog = ""
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseBenchLine(pkg, line)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if seen[res.Name] {
				return nil, fmt.Errorf("harness: duplicate benchmark name %s — output would be ambiguous", res.Name)
			}
			seen[res.Name] = true
			out.Results = append(out.Results, res)
		}
	}
	if pendingSkip != nil {
		out.Skips = append(out.Skips, *pendingSkip)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("harness: reading bench output: %w", err)
	}
	return out, nil
}

// stripLogSite drops the "file_test.go:123: " prefix testing prepends to
// b.Skipf output, leaving just the reason text.
func stripLogSite(s string) string {
	if i := strings.Index(s, ".go:"); i >= 0 {
		rest := s[i+len(".go:"):]
		if j := strings.Index(rest, ": "); j >= 0 {
			if _, err := strconv.Atoi(rest[:j]); err == nil {
				return rest[j+2:]
			}
		}
	}
	return s
}

func qualify(pkg, name string) string {
	if pkg == "" {
		return name
	}
	return pkg + "." + name
}

// parseBenchLine parses one result line. ok is false for lines that start
// with "Benchmark" but are not result lines (e.g. a bare name printed
// before the measurement on its own line at wide terminal widths).
func parseBenchLine(pkg, line string) (Result, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false, nil
	}
	name := fields[0]
	// Trim the -GOMAXPROCS suffix go test appends to the leaf name.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res := Result{Name: qualify(pkg, name)}
	gotNs := false
	// Fields after the iteration count come in value-unit pairs; extra
	// b.ReportMetric pairs (ARE@maxdelta, ...) are ignored.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false, fmt.Errorf("harness: malformed bench line %q: %v", line, err)
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsOp, gotNs = v, true
		case "B/op":
			res.BOp = fptr(v)
		case "allocs/op":
			res.AllocsOp = fptr(v)
		}
	}
	if !gotNs {
		return Result{}, false, nil
	}
	return res, true, nil
}

// WriteFlatJSON writes results in the flat BENCH_n.json format the
// tracked baselines use (`secreta-bench parse` emits it): a JSON array of
// {name, ns_op, b_op, allocs_op} records, two-space indented, null for
// missing memory stats.
func WriteFlatJSON(w io.Writer, results []Result) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	for i, r := range results {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "  {\"name\": %q, \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}",
			r.Name, formatNum(r.NsOp), formatOpt(r.BOp), formatOpt(r.AllocsOp))
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// formatNum renders a measurement the way `go test` printed it: integers
// without a fractional part, sub-nanosecond timings with their decimals.
func formatNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatOpt(p *float64) string {
	if p == nil {
		return "null"
	}
	return formatNum(*p)
}
