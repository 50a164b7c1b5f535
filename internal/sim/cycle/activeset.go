package cycle

import "xmtgo/internal/sim/engine"

// activeSet is the set of ports (or modules) of a serial macro-actor that
// may hold work: an engine.Bitset walked in ascending index order, the
// order the all-ports scans it replaces visited in — module service order is
// memory order, so that order is the determinism contract.
//
// Membership is conservative. A member whose queue turns out empty (a
// rollback truncated it, a quiescent checkpoint drained it) is dropped on
// its next visit; a non-empty queue outside its set would never be visited
// again, so every append site sets the bit (TestActiveSetInvariant).
type activeSet = engine.Bitset
