package obs

import (
	"bufio"
	"fmt"
	"io"
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
// escaping — the canonical label-block body WriteProm emits and ParseProm
// reads back.
func LabelString(pairs []Label) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// PromSample is one parsed exposition sample: a metric name, its label block
// (both the raw text between the braces and the decoded pairs), and the
// value.
type PromSample struct {
	Name   string
	Labels string // e.g. `proc="0"` — raw text between the braces
	// LabelPairs is the decoded label set, with escape sequences resolved.
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
// round-trip.
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
		start := i + 1
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
		s.Labels = line[start:i]
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

// ParseProm parses the Prometheus text exposition format (the subset
// WriteProm emits: HELP/TYPE comments and `name{labels} value` samples).
// It returns the samples in order and rejects malformed lines, so tests and
// cmd/specbench can verify a dump is well-formed. Label values round-trip
// through the exposition escapes (backslash, quote, newline).
func ParseProm(r io.Reader) ([]PromSample, error) {
	var out []PromSample
	err := scanProm(r, func(s PromSample) { out = append(out, s) }, nil)
	return out, err
}

// ParsePromFamilies parses an exposition grouped into metric families: a
// HELP/TYPE comment opens a family, and subsequent samples whose name is the
// family name (or its _bucket/_sum/_count derivative) belong to it. Samples
// with no preceding header form headerless families of their own.
func ParsePromFamilies(r io.Reader) ([]PromFamily, error) {
	var fams []PromFamily
	cur := -1 // index into fams the next sample may extend
	sample := func(s PromSample) {
		if cur >= 0 && sampleInFamily(fams[cur].Name, s.Name) {
			fams[cur].Samples = append(fams[cur].Samples, s)
			return
		}
		fams = append(fams, PromFamily{Name: s.Name, Samples: []PromSample{s}})
		cur = len(fams) - 1
	}
	header := func(name, key, text string) {
		if cur < 0 || fams[cur].Name != name {
			fams = append(fams, PromFamily{Name: name})
			cur = len(fams) - 1
		}
		if key == "HELP" {
			fams[cur].Help = text
		} else {
			fams[cur].Type = text
		}
	}
	err := scanProm(r, sample, header)
	return fams, err
}

// scanProm is the shared line scanner behind ParseProm and
// ParsePromFamilies. header is nil when comments should just be skipped.
func scanProm(r io.Reader, sample func(PromSample), header func(name, key, text string)) error {
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
			if header == nil {
				continue
			}
			// A header without text is a comment: WriteFamilies could not
			// write it back.
			fields := strings.SplitN(line, " ", 4)
			if len(fields) == 4 && (fields[1] == "HELP" || fields[1] == "TYPE") && validMetricName(fields[2]) {
				header(fields[2], fields[1], fields[3])
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return fmt.Errorf("obs: line %d: %v in %q", lineNo, err, line)
		}
		sample(s)
	}
	return sc.Err()
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

// WriteFamilies renders families back to the text exposition format, the
// inverse of ParsePromFamilies. Output produced by WriteProm survives a
// parse/write round trip byte-identically.
func WriteFamilies(w io.Writer, fams []PromFamily) error {
	for _, f := range fams {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if f.Type != "" {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
				return err
			}
		}
		for _, s := range f.Samples {
			labels := ""
			if len(s.LabelPairs) > 0 {
				labels = "{" + LabelString(s.LabelPairs) + "}"
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, labels, formatVal(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
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
