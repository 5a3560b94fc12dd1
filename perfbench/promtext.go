package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSnap is one scrape of the Prometheus text exposition, keyed by the
// series as printed ("name" or "name{label=\"v\",...}").
type promSnap map[string]float64

// parseProm reads the text format: comments and blank lines are skipped,
// every other line is "<series> <value>".
func parseProm(r io.Reader) (promSnap, error) {
	out := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// family sums every series of one metric family whose labels contain
// all of the given name="value" pairs (none: the whole family). Only the
// family's own series match: "x_total" does not pick up "x_total_bytes".
func (p promSnap) family(name string, labels ...string) float64 {
	var sum float64
	for series, v := range p {
		base, lbl, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(","+strings.TrimSuffix(lbl, "}")+",", ","+l+",") {
				ok = false
				break
			}
		}
		if ok {
			sum += v
		}
	}
	return sum
}

// delta returns after−before for one family selection; counters only
// grow, so a negative delta means the daemon restarted in between.
func delta(before, after promSnap, name string, labels ...string) (float64, error) {
	d := after.family(name, labels...) - before.family(name, labels...)
	if d < 0 {
		return 0, fmt.Errorf("metrics: %s went backwards (%g)", name, d)
	}
	return d, nil
}
