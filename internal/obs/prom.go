package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-exposition escaping: label values escape backslash, double
// quote and newline; everything else passes through verbatim.

// EscapeLabelValue renders s as the escaped body of a quoted label value.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i := 0; i < len(s); i++ { // bytes, not runes: a value need not be UTF-8
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// LabelString renders pairs as `k="v",...` (no braces) with exposition
// escaping — the label-block body WriteFamilies emits and ParsePromFamilies
// reads back.
func LabelString(pairs []Label) string { return string(appendLabels(nil, pairs)) }

func appendLabels(b []byte, pairs []Label) []byte {
	for i, l := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, `="`...)
		b = append(b, EscapeLabelValue(l.Value)...)
		b = append(b, '"')
	}
	return b
}

// appendVal renders a sample value the way Prometheus does: integers below
// 1e15 in decimal, everything else in the shortest %g form.
func appendVal(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func formatVal(v float64) string { return string(appendVal(nil, v)) }

// PromSample is one exposition sample: a metric name, its decoded label set
// (escape sequences resolved), and the value.
type PromSample struct {
	Name       string
	LabelPairs []Label
	Value      float64
}

// PromFamily is one metric family of an exposition: the HELP/TYPE header (if
// present) and the samples grouped under it. Histogram families include
// their _bucket/_sum/_count samples with the full sample names.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// parseQuoted scans a quoted label value starting at line[i] (the opening
// quote), resolving \\ \" \n escapes, and returns the decoded value and the
// index just past the closing quote.
func parseQuoted(line string, i int) (string, int, error) {
	if i >= len(line) || line[i] != '"' {
		return "", i, fmt.Errorf("want opening quote at column %d", i)
	}
	i++
	var b strings.Builder
	for i < len(line) {
		c := line[i]
		switch c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(line) {
				return "", i, fmt.Errorf("dangling escape at end of line")
			}
			switch line[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", i, fmt.Errorf("unknown escape \\%c", line[i+1])
			}
			i += 2
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", i, fmt.Errorf("unterminated label value")
}

// parseSampleLine parses one `name{labels} value` (or `name value`) line.
// The label scanner honors quoting, so braces and commas inside label values
// round-trip. A label name may appear once per sample, as the text format
// requires.
func parseSampleLine(line string) (PromSample, error) {
	var s PromSample
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if s.Name == "" || !validMetricName(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
				i++
			}
			if i < len(line) && line[i] == '}' {
				break
			}
			k := i
			for i < len(line) && line[i] != '=' {
				i++
			}
			if i >= len(line) {
				return s, fmt.Errorf("label without '='")
			}
			key := strings.TrimSpace(line[k:i])
			if key == "" {
				return s, fmt.Errorf("empty label name")
			}
			i++ // '='
			val, next, err := parseQuoted(line, i)
			if err != nil {
				return s, err
			}
			i = next
			s.LabelPairs = append(s.LabelPairs, Label{Key: key, Value: val})
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
		if key, ok := repeatedKey(s.LabelPairs); ok {
			return s, fmt.Errorf("label %q repeated", key)
		}
		i++ // '}'
	}
	rest := strings.TrimSpace(line[i:])
	if rest == "" {
		return s, fmt.Errorf("missing value")
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// repeatedKey returns a label name that occurs more than once in pairs.
func repeatedKey(pairs []Label) (string, bool) {
	seen := map[string]bool{}
	for _, p := range pairs {
		if seen[p.Key] {
			return p.Key, true
		}
		seen[p.Key] = true
	}
	return "", false
}

// ParsePromFamilies parses the Prometheus text exposition format (HELP/TYPE
// comments and `name{labels} value` samples), grouped into metric families:
// a HELP/TYPE comment opens a family, and subsequent samples whose name is
// the family name (or its _bucket/_sum/_count derivative) belong to it.
// Samples with no preceding header form headerless families of their own.
// It rejects malformed lines. Label values round-trip through the
// exposition escapes (backslash, quote, newline).
func ParsePromFamilies(r io.Reader) ([]PromFamily, error) {
	var fams []PromFamily
	cur := -1 // index into fams the next sample may extend
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// A header without text is a comment: WriteFamilies could not
			// write it back.
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") || !validMetricName(fields[2]) {
				continue
			}
			if name := fields[2]; cur < 0 || fams[cur].Name != name {
				fams = append(fams, PromFamily{Name: name})
				cur = len(fams) - 1
			}
			if fields[1] == "HELP" {
				fams[cur].Help = fields[3]
			} else {
				fams[cur].Type = fields[3]
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return fams, fmt.Errorf("obs: line %d: %v in %q", lineNo, err, line)
		}
		if cur < 0 || !sampleInFamily(fams[cur].Name, s.Name) {
			fams = append(fams, PromFamily{Name: s.Name})
			cur = len(fams) - 1
		}
		fams[cur].Samples = append(fams[cur].Samples, s)
	}
	return fams, sc.Err()
}

// sampleInFamily reports whether a sample named sample belongs to the family
// named fam (identical, or a histogram-derived series).
func sampleInFamily(fam, sample string) bool {
	if sample == fam {
		return true
	}
	if !strings.HasPrefix(sample, fam) {
		return false
	}
	switch sample[len(fam):] {
	case "_bucket", "_sum", "_count":
		return true
	}
	return false
}

// WriteFamilies renders families in the text exposition format, the
// inverse of ParsePromFamilies: what it writes parses back to the same
// families and writes again byte-identically. It is the one exposition
// writer; every /metrics route and every pushed snapshot goes through it.
func WriteFamilies(w io.Writer, fams []PromFamily) error {
	var b []byte
	for _, f := range fams {
		b = b[:0]
		if f.Help != "" {
			b = append(append(append(append(append(b, "# HELP "...), f.Name...), ' '), f.Help...), '\n')
		}
		if f.Type != "" {
			b = append(append(append(append(append(b, "# TYPE "...), f.Name...), ' '), f.Type...), '\n')
		}
		for _, s := range f.Samples {
			b = append(b, s.Name...)
			if len(s.LabelPairs) > 0 {
				b = append(appendLabels(append(b, '{'), s.LabelPairs), '}')
			}
			b = append(appendVal(append(b, ' '), s.Value), '\n')
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Totals sums an exposition's samples by sample name — the one totals rule:
// a counter or gauge family totals under its own name, a histogram under
// name_sum and name_count (its _bucket samples are skipped).
func Totals(fams []PromFamily) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			if len(s.Name) == len(f.Name)+len("_bucket") && strings.HasSuffix(s.Name, "_bucket") {
				continue
			}
			out[s.Name] += s.Value
		}
	}
	return out
}

// MergeFamilies is the one rule by which expositions are merged: one family
// per name, sorted by name, carrying the HELP and TYPE of the name's first
// occurrence and the samples of every occurrence in input order. The result
// shares no sample slice with fams.
func MergeFamilies(fams []PromFamily) []PromFamily {
	at := make(map[string]int, len(fams))
	var out []PromFamily
	for _, f := range fams {
		i, ok := at[f.Name]
		if !ok {
			i = len(out)
			at[f.Name] = i
			out = append(out, PromFamily{Name: f.Name, Help: f.Help, Type: f.Type})
		}
		out[i].Samples = append(out[i].Samples, f.Samples...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// validMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return len(s) > 0
}
