package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestEscapeLabelValue pins the three-character escape set of the Prometheus
// text format: backslash, double quote, and newline — and nothing else.
func TestEscapeLabelValue(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{`back\slash`, `back\\slash`},
		{`say "hi"`, `say \"hi\"`},
		{"two\nlines", `two\nlines`},
		{"{},= are fine", "{},= are fine"},
		{`all \ " three` + "\n", `all \\ \" three\n`},
		{"", ""},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// adversarialValues are label values that break naive expositions: every
// escapable character, the label-syntax metacharacters, and mixes thereof.
var adversarialValues = []string{
	`simple`,
	`tricky\path`,
	`"quoted"`,
	"line\nbreak",
	`\" mixed \n literal`,
	`a="b",c="d"`,
	`{}`,
	`trailing\`,
	"\n",
	`\\n`, // literal backslash-backslash-n, distinct from a newline
}

// TestPromLabelRoundTrip drives every adversarial value through the full
// pipeline — registry exposition → parse → re-render → parse — and checks
// both that the recovered label value is byte-identical to the original and
// that the re-rendered text is byte-identical to the first exposition.
func TestPromLabelRoundTrip(t *testing.T) {
	reg := NewRegistry()
	for i, v := range adversarialValues {
		reg.Counter("specomp_test_escape_total", "Escaping probe.",
			L("idx", string(rune('a'+i))), L("payload", v)).Add(float64(i + 1))
	}
	var first bytes.Buffer
	if err := reg.WriteProm(&first); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}

	fams, err := ParsePromFamilies(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ParsePromFamilies: %v", err)
	}
	recovered := map[string]string{}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			var idx, payload string
			for _, l := range s.LabelPairs {
				switch l.Key {
				case "idx":
					idx = l.Value
				case "payload":
					payload = l.Value
				}
			}
			recovered[idx] = payload
		}
	}
	for i, v := range adversarialValues {
		idx := string(rune('a' + i))
		if recovered[idx] != v {
			t.Errorf("value %d: recovered %q, want %q", i, recovered[idx], v)
		}
	}

	var second bytes.Buffer
	if err := WriteFamilies(&second, fams); err != nil {
		t.Fatalf("WriteFamilies: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("parse→render is not byte-identical:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
}

// TestPromRoundTripProperty fuzzes random label values (biased toward the
// escape and metacharacter set) through escape→parse and asserts exact
// recovery. Seeded, so failures reproduce.
func TestPromRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune{'\\', '"', '\n', '{', '}', ',', '=', 'a', 'Z', '0', ' ', '_', 'µ'}
	for trial := 0; trial < 500; trial++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		want := sb.String()
		line := `probe_total{v="` + EscapeLabelValue(want) + `"} 1`
		s, err := parseSampleLine(line)
		if err != nil {
			t.Fatalf("trial %d: value %q rendered unparseable line %q: %v", trial, want, line, err)
		}
		if len(s.LabelPairs) != 1 || s.LabelPairs[0].Value != want {
			t.Fatalf("trial %d: recovered %q, want %q", trial, s.LabelPairs[0].Value, want)
		}
	}
}

// TestParsePromRejectsBrokenEscapes pins the failure mode: a dangling
// backslash or an unterminated quote must error, not silently truncate.
func TestParsePromRejectsBrokenEscapes(t *testing.T) {
	bad := []string{
		`m{v="unterminated} 1`,
		`m{v="dangling\` + `"} 1x`,
		`m{v="ok"` + "\n", // missing closing brace and value
		`m{v=unquoted} 1`,
	}
	for _, line := range bad {
		if _, err := ParsePromFamilies(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParsePromFamilies accepted malformed line %q", line)
		}
	}
}

// TestMergeFamilies pins the merge rule both fleet aggregators use: one
// family per name in name order, the first occurrence's HELP and TYPE,
// every occurrence's samples in input order, a family kept even when it has
// no samples, and no sample slice shared with the input.
func TestMergeFamilies(t *testing.T) {
	in, err := ParsePromFamilies(strings.NewReader(`# HELP b_total first help
# TYPE b_total counter
b_total{node="0"} 1
# HELP a_gauge gauge
# TYPE a_gauge gauge
a_gauge 5
# HELP b_total second help
# TYPE b_total gauge
b_total{node="1"} 2
`))
	if err != nil {
		t.Fatal(err)
	}
	in = append(in, PromFamily{Name: "c_empty", Help: "no samples", Type: "gauge"},
		PromFamily{Name: "b_total", Samples: []PromSample{{Name: "b_total", LabelPairs: []Label{L("node", "2")}, Value: 3}}})
	merged := MergeFamilies(in)
	var out bytes.Buffer
	if err := WriteFamilies(&out, merged); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge gauge
# TYPE a_gauge gauge
a_gauge 5
# HELP b_total first help
# TYPE b_total counter
b_total{node="0"} 1
b_total{node="1"} 2
b_total{node="2"} 3
# HELP c_empty no samples
# TYPE c_empty gauge
`
	if out.String() != want {
		t.Errorf("merged exposition:\n%s\nwant:\n%s", out.String(), want)
	}
	merged[1].Samples[0].Value = 99
	if in[0].Samples[0].Value != 1 {
		t.Error("merged family shares its sample slice with the input")
	}
}

// TestParsePromRejectsRepeatedLabel: the text format allows a label name
// once per sample, and a merge that re-labels samples relies on it.
func TestParsePromRejectsRepeatedLabel(t *testing.T) {
	for _, line := range []string{
		`m{a="1",a="2"} 1`,
		`m{a="1",b="2",a="1"} 1`,
		`m{k0="",k1="",k2="",k3="",k4="",k5="",k6="",k7="",k8="",k3=""} 1`,
	} {
		if _, err := ParsePromFamilies(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("ParsePromFamilies accepted repeated label name in %q", line)
		}
	}
	if _, err := ParsePromFamilies(strings.NewReader(`m{a="1",b="1"} 1` + "\n")); err != nil {
		t.Errorf("distinct label names refused: %v", err)
	}
}
