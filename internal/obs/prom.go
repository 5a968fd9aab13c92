package obs

import (
	"fmt"
	"io"
	"net/http"
)

// Prom writes the Prometheus text exposition format (version 0.0.4). It
// is the one place that knows the format: every /metrics family of
// robustd and robustworker is written through it. Write errors are
// dropped; a scrape that fails part-way is the scraper's to retry.
type Prom struct{ w io.Writer }

// NewProm returns a writer of exposition text to w.
func NewProm(w io.Writer) Prom { return Prom{w} }

// Family writes a family header: HELP, left out when help is empty, then
// TYPE.
func (p Prom) Family(name, typ, help string) {
	if help != "" {
		fmt.Fprintf(p.w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
}

// Int writes one sample with an integer value. labels are key, value
// pairs in exposition order.
func (p Prom) Int(name string, v int64, labels ...string) { p.sample(name, labels, v) }

// Float writes one sample with a float value in shortest form.
func (p Prom) Float(name string, v float64, labels ...string) { p.sample(name, labels, v) }

// sample writes name{k="v",...} and v, which %v prints as %d for an
// integer and %g for a float64.
func (p Prom) sample(name string, labels []string, v any) {
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		name += fmt.Sprintf("%s%s=%q", sep, labels[i], labels[i+1])
		sep = ","
	}
	if sep == "," {
		name += "}"
	}
	fmt.Fprintf(p.w, "%s %v\n", name, v)
}

// MetricsHandler serves GET /metrics: the exposition content type, then
// what write writes. write must keep no state between scrapes, so any
// number of concurrent scrapers are safe.
func MetricsHandler(write func(io.Writer)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	}
}
