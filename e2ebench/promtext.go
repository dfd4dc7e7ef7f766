package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape reads a Prometheus text exposition from url and sums each
// sample name over its label sets ("a{x=\"1\"} 2" and "a{x=\"2\"} 3" give
// a = 5).
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return out, nil
}
