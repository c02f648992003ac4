// Package react is a Go reproduction of REACT ("REAl-time schEduling for
// Crowd-based Tasks"), the crowdsourcing middleware of Boutsis and
// Kalogeraki, "Crowdsourcing under Real-Time Constraints", IPPS/IPDPS 2013.
//
// REACT assigns crowd tasks to human workers under soft real-time
// deadlines. Its two ideas are (1) an online weighted-bipartite-matching
// heuristic that computes a high-weight assignment for each batch of
// unassigned tasks in bounded time, and (2) a per-worker power-law model of
// completion times whose CCDF both prunes hopeless worker/task edges before
// matching and revokes running assignments whose probability of finishing
// before the deadline has collapsed.
//
// The implementation lives in the internal packages:
//
//   - internal/bipartite — the weighted bipartite graph and matching state
//   - internal/matching  — REACT (Algorithm 1), Metropolis, Greedy, Uniform,
//     and an exact Hungarian reference solver
//   - internal/powerlaw  — the paper's execution-time model (Eqs. 2 and 3)
//   - internal/profile, internal/taskq, internal/schedule and the Eq. 2
//     monitor in internal/engine — the four server components of Figure 1
//   - internal/engine    — the whole scheduler: admission gates, the
//     scheduling round (trigger → prune → match → apply), the monitor and
//     the task store, shared by the simulator and the live server
//   - internal/core      — the deployable region server
//   - internal/wire      — the JSON/TCP protocol (PlanetLab substitute)
//   - internal/federation — multi-region routing by geography
//   - internal/region    — spatial decomposition: haversine, the region grid
//   - internal/event     — the lifecycle event spine and the ledger that
//     folds it into counters and missed-deadline attribution
//   - internal/sim, internal/crowd, internal/workload, internal/metrics,
//     internal/loadgen, internal/experiments — the evaluation substrate
//     that regenerates every figure of the paper
//
// Binaries: cmd/reactd (region server), cmd/reactctl (client CLI),
// cmd/reactsim (figure regeneration, matcher sweeps), cmd/reactload (live
// load). Runnable scenarios live under examples/. The benchmarks in bench_test.go
// regenerate each figure via `go test -bench`.
package react
