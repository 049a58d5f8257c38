package core

import "repro/internal/membudget"

// ErrMemoryBudget is returned (wrapped) when enumeration exceeds the
// memory budget — the in-library analogue of the paper's graph-B run
// that "consumed 607 GB ... and 404 GB ... when it was terminated after
// 12 hours".  It aliases the governor's sentinel, so every backend's
// budget abort satisfies the same errors.Is target.
var ErrMemoryBudget = membudget.ErrBudget
