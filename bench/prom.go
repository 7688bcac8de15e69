package main

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// promText is a parsed Prometheus text exposition: every sample's value by
// series key (sample name plus its sorted labels).
type promText map[string]float64

// seriesKey renders name{k="v",...} with labels sorted by name; labels is
// a flat list of name, value pairs.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+strconv.Quote(labels[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm reads counter, gauge and histogram samples. Comment lines
// (# HELP, # TYPE) and blank lines are skipped; an optional timestamp
// after the value is ignored.
func parseProm(data []byte) (promText, error) {
	p := promText{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, labels := line, "", []string(nil)
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if strings.HasPrefix(rest, "{") {
			var err error
			if labels, rest, err = parsePromLabels(rest[1:]); err != nil {
				return nil, fmt.Errorf("prom line %d: %w", n, err)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("prom line %d: want value [timestamp] in %q", n, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom line %d: bad value %q", n, fields[0])
		}
		p[seriesKey(name, labels...)] = v
	}
	return p, sc.Err()
}

// parsePromLabels consumes `k="v",...}` and returns the flat label pairs
// and the text after the closing brace.
func parsePromLabels(s string) ([]string, string, error) {
	var labels []string
	for {
		s = strings.TrimLeft(s, " ,")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 || !strings.HasPrefix(s[eq+1:], `"`) {
			return nil, "", fmt.Errorf("malformed label set %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		s = s[eq+2:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' && s != "" {
				c = s[0]
				s = s[1:]
				if c == 'n' {
					c = '\n'
				}
			}
			val.WriteByte(c)
		}
		labels = append(labels, name, val.String())
	}
}

// value returns one counter or gauge sample.
func (p promText) value(name string, labels ...string) (float64, bool) {
	v, ok := p[seriesKey(name, labels...)]
	return v, ok
}

// histogram returns a histogram family's _sum and _count samples.
func (p promText) histogram(family string, labels ...string) (sum, count float64, ok bool) {
	sum, ok1 := p.value(family+"_sum", labels...)
	count, ok2 := p.value(family+"_count", labels...)
	return sum, count, ok1 && ok2
}
