// Package a is budgetpair analyzer testdata: a local Governor stub
// (matched nominally) exercising the pairing, escape and quantity rules.
package a

import (
	"errors"

	"repro/internal/analysis/budgetpair/testdata/src/a/gov"
)

type Governor struct{ n int64 }

func (g *Governor) Charge(n int64)  { g.n += n }
func (g *Governor) Release(n int64) { g.n -= n }

var errBoom = errors.New("boom")

func leakNoRelease(g *Governor, n int64) {
	g.Charge(n) // want `has no matching Release`
}

func leakEarlyReturn(g *Governor, n int64, bad bool) error {
	g.Charge(n)
	if bad {
		return errBoom // want `return leaks the governor charge`
	}
	g.Release(n)
	return nil
}

func okDefer(g *Governor, n int64, bad bool) error {
	g.Charge(n)
	defer g.Release(n)
	if bad {
		return errBoom
	}
	return nil
}

func okDeferClosure(g *Governor, n int64, bad bool) error {
	g.Charge(n)
	defer func() {
		g.Release(n)
	}()
	if bad {
		return errBoom
	}
	return nil
}

func leakWrongAmount(g *Governor, n int64) {
	g.Charge(n) // want `never Released with the same quantity`
	g.Release(8)
}

func leakFallOffEnd(g *Governor, n int64) {
	g.Release(n)
	g.Charge(n) // want `falls off the end`
}

// pool releases in stop what start charged: receiver escape, no finding.
type pool struct{ gov *Governor }

func (p *pool) start(n int64) {
	p.gov.Charge(n)
}

func (p *pool) stop(n int64) {
	p.gov.Release(n)
}

// reader releases in close what open charged into it: result escape.
type reader struct {
	gov *Governor
	n   int64
}

func (r *reader) close() { r.gov.Release(r.n) }

func open(g *Governor, n int64) *reader {
	g.Charge(n)
	return &reader{gov: g, n: n}
}

// keep transfers ownership to a caller the escape rules cannot see; the
// justified suppression keeps it quiet.
//
//nolint:budgetpair the level loop retires these sub-lists in bulk
func keep(g *Governor, n int64) {
	g.Charge(n)
}

// ---- Reserve/Close pairing (the reservation sub-budget API) ----------

// Reservation stubs the membudget sub-budget handle; Close is its
// release method.
type Reservation struct {
	g *Governor
	n int64
}

func (r *Reservation) Close() int64 { r.g.Release(r.n); return 0 }

// Reserve stubs the acquire.  Its internal Charge is exempt: methods of
// the accounting types are the mechanism, not acquisitions.
func (g *Governor) Reserve(n int64) (*Reservation, error) {
	g.Charge(n)
	return &Reservation{g: g, n: n}, nil
}

func leakReserveNoClose(g *Governor, n int64) {
	g.Reserve(n) // want `Reserve\(n\) has no matching Close`
}

func leakReserveEarlyReturn(g *Governor, n int64, bad bool) error {
	res, err := g.Reserve(n)
	if err != nil {
		return err // exempt: a failed Reserve leaves nothing to close
	}
	if bad {
		return errBoom // want `return leaks the reservation`
	}
	res.Close()
	return nil
}

func okReserveDefer(g *Governor, n int64, bad bool) error {
	res, err := g.Reserve(n)
	if err != nil {
		return err
	}
	defer res.Close()
	if bad {
		return errBoom
	}
	return nil
}

func leakReserveFallOffEnd(g *Governor, n int64) {
	res, _ := g.Reserve(n)
	_ = res
	res2, _ := g.Reserve(n)
	res2.Close()
	res.Close()
}

func leakReserveFallOffEnd2(g *Governor, n int64) {
	stale := &Reservation{g: g, n: n}
	stale.Close()
	g.Reserve(n) // want `Reserve\(n\) is not Closed before leakReserveFallOffEnd2 falls off the end`
}

// lease owns its reservation: Close on the lease closes it, so the
// constructor's Reserve escapes by rule two.
type lease struct{ res *Reservation }

func (l *lease) Close() int64 { return l.res.Close() }

func acquireLease(g *Governor, n int64) (*lease, error) {
	res, err := g.Reserve(n)
	if err != nil {
		return nil, err
	}
	return &lease{res: res}, nil
}

// holder pins a reservation through a field: receiver escape via the
// registry pattern (a method of holder closes it later).
type holder struct {
	gov *Governor
	res *Reservation
}

func (h *holder) pin(n int64) error {
	res, err := h.gov.Reserve(n)
	if err != nil {
		return err
	}
	h.res = res
	return nil
}

func (h *holder) unpin() { h.res.Close() }

// ---- settlement through helpers --------------------------------------

// returnBudget settles its governor parameter; callers releasing
// through it are paired.
func returnBudget(g *Governor, n int64) {
	g.Release(n)
}

func okHelperRelease(g *Governor, n int64, bad bool) error {
	g.Charge(n)
	defer returnBudget(g, n)
	if bad {
		return errBoom
	}
	return nil
}

// A helper in another package is opaque: the charge reads as unpaired.
func okCrossHelperRelease(g *gov.Governor, n int64) {
	g.Charge(n) // want `has no matching Release`
	gov.ReturnBudget(g, n)
}

func closeRes(r *Reservation) { r.Close() }

func okHelperClose(g *Governor, n int64, bad bool) error {
	res, err := g.Reserve(n)
	if err != nil {
		return err
	}
	defer closeRes(res)
	if bad {
		return errBoom
	}
	return nil
}

// peek merely reads the governor — not a settlement.
func peek(g *Governor) int64 { return g.n }

func leakHelperNoRelease(g *Governor, n int64) {
	g.Charge(n) // want `has no matching Release`
	peek(g)
}
