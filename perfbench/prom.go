package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// key identifies the series: name plus sorted labels.
func (s sample) key() string {
	ks := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range ks {
		fmt.Fprintf(&b, ",%s=%q", k, s.Labels[k])
	}
	return b.String()
}

// exposition is a parsed /metrics scrape.
type exposition []sample

// parseExposition reads the Prometheus text format: comment and blank
// lines are skipped, every other line is `name{labels} value`.
func parseExposition(r io.Reader) (exposition, error) {
	var out exposition
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSample(text string) (sample, error) {
	s := sample{Labels: map[string]string{}}
	i := strings.IndexAny(text, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	s.Name = text[:i]
	rest := text[i:]
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
				return s, fmt.Errorf("bad label in %q", text)
			}
			name := strings.TrimSpace(rest[:eq])
			val, n, err := unquoteLabel(rest[eq+1:])
			if err != nil {
				return s, fmt.Errorf("%v in %q", err, text)
			}
			s.Labels[name] = val
			rest = rest[eq+1+n:]
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", text, err)
	}
	s.Value = v
	return s, nil
}

// unquoteLabel decodes a quoted label value at the start of in and
// returns it with the number of bytes consumed, quotes included.
func unquoteLabel(in string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(in); i++ {
		switch c := in[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(in) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			switch in[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(in[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// sum adds every series of the named metric, whatever its labels.
func (e exposition) sum(name string) float64 {
	total := 0.0
	for _, s := range e {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// minus returns e with each series reduced by its value in prev: the
// counter deltas over the interval between two scrapes.
func (e exposition) minus(prev exposition) exposition {
	old := make(map[string]float64, len(prev))
	for _, s := range prev {
		old[s.key()] += s.Value
	}
	out := make(exposition, len(e))
	for i, s := range e {
		s.Value -= old[s.key()]
		out[i] = s
	}
	return out
}

// quantile estimates the q-quantile of a histogram metric from its
// cumulative _bucket series (summed across every other label), by
// linear interpolation inside the bucket that crosses q — the
// histogram_quantile rule. It reports false when the histogram is
// empty. An estimate landing in the +Inf bucket returns the highest
// finite bound.
func (e exposition) quantile(name string, q float64) (float64, bool) {
	counts := map[float64]float64{}
	for _, s := range e {
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		counts[le] += s.Value
	}
	bounds := make([]float64, 0, len(counts))
	for b := range counts {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || counts[bounds[len(bounds)-1]] <= 0 {
		return 0, false
	}
	total := counts[bounds[len(bounds)-1]]
	want := q * total
	lower, below := 0.0, 0.0
	for _, ub := range bounds {
		c := counts[ub]
		if c >= want {
			if math.IsInf(ub, 1) {
				return lower, true
			}
			if c == below {
				return ub, true
			}
			return lower + (ub-lower)*(want-below)/(c-below), true
		}
		lower, below = ub, c
	}
	return lower, true
}
