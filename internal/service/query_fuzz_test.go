package service

import (
	"net/http"
	"net/url"
	"testing"
)

// FuzzCliqueQuery feeds raw query strings to parseCliqueQuery, the
// parser of every enumerate request.  It must never panic.  An accepted
// query asks for no more workers than the cap and names a known wire
// format, and its cache key depends on lo, hi, small and format alone:
// the key of a query holding only those four is the same.  A mode=
// parameter, which the service no longer reads, changes neither the
// parsed query nor whether it is accepted.
func FuzzCliqueQuery(f *testing.F) {
	for _, raw := range []string{
		"", "lo=3", "lo=3&hi=5&format=text", "lo=-1", "lo=5&hi=3", "hi=x",
		"workers=99&strategy=affinity", "workers=-2", "strategy=quantum",
		"small=1&rep=csr&mem=1024", "rep=bogus", "mem=0", "format=xml",
		"mode=store", "mode=turbo&lo=4", "lo=%zz", "lo=3;hi=4", "lo= 7",
	} {
		f.Add(raw, "store")
	}
	const maxWorkers = 4
	parse := func(raw string) (cliqueQuery, error) {
		return parseCliqueQuery(&http.Request{URL: &url.URL{RawQuery: raw}}, maxWorkers)
	}
	f.Fuzz(func(t *testing.T, raw, mode string) {
		q, err := parse(raw)
		qm, errm := parse(raw + "&mode=" + url.QueryEscape(mode))
		if (err == nil) != (errm == nil) || q != qm {
			t.Fatalf("%q: mode=%q moved the parse: %+v (%v), without it %+v (%v)", raw, mode, qm, errm, q, err)
		}
		if err != nil {
			return
		}
		if q.workers < 0 || q.workers > maxWorkers {
			t.Fatalf("%q: %d workers accepted, the cap is %d", raw, q.workers, maxWorkers)
		}
		if q.format != "ndjson" && q.format != "text" {
			t.Fatalf("%q: unknown format %q accepted", raw, q.format)
		}
		only := cliqueQuery{lo: q.lo, hi: q.hi, small: q.small, format: q.format}
		if key := q.cacheKey(); key != only.cacheKey() {
			t.Fatalf("%q: key %q, but lo, hi, small and format alone give %q", raw, key, only.cacheKey())
		}
	})
}
