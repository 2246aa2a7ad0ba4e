package main

import (
	"fmt"
	"strconv"
	"strings"
)

// series maps one Prometheus text-format sample name, labels included
// exactly as exposed (`name{a="x",b="y"}`), to its value.
type series map[string]float64

// parseSeries reads the daemon's /metrics exposition. Comment lines are
// skipped; any other line must be `<series> <value>`.
func parseSeries(text string) (series, error) {
	out := make(series)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// delta is after minus before for every series in after; a series absent
// before counts from zero (counters are registered lazily).
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the family name whose labels include all of
// the given `key="value"` pairs.
func (s series) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		base, lbls, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(","+strings.TrimSuffix(lbls, "}")+",", ","+l+",") {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// hist is one histogram's count and sum (seconds) over a delta.
type hist struct{ count, sum float64 }

func (s series) hist(name string, labels ...string) hist {
	return hist{count: s.sum(name+"_count", labels...), sum: s.sum(name+"_sum", labels...)}
}

// meanMillis is the mean observation in milliseconds (0 when empty).
func (h hist) meanMillis() float64 {
	if h.count < 1 {
		return 0
	}
	return h.sum / h.count * 1000
}
