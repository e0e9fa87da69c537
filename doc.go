// Package fgcs is a from-scratch Go implementation of "Resource Availability
// Prediction in Fine-Grained Cycle Sharing Systems" (Ren, Lee, Eigenmann,
// Bagchi — HPDC 2006): the five-state resource availability model, the
// semi-Markov temporal-reliability predictor, the linear time-series
// baselines, the iShare FGCS runtime, the host-contention simulator behind
// the Th1/Th2 thresholds, and the synthetic testbed-trace generator, with a
// benchmark harness that regenerates every figure of the paper's evaluation.
//
// # Layout
//
// The library lives under internal/ in five layers (the full map, with a
// dependency diagram and a request lifecycle, is in ARCHITECTURE.md):
//
//   - Foundations: simclock (injected clocks), rng (seeded streams), stats,
//     linalg, txtplot, obs (metrics + online accuracy), otrace (request
//     tracing + flight recorder). Determinism is load-bearing: nothing
//     above this layer touches the wall clock or global randomness.
//   - Trace data: trace (samples/days/codecs), workload (synthetic testbed
//     generator), host (§3.2 contention simulator), monitor (live /proc
//     sampling + t_monitor heartbeat).
//   - Prediction: avail (§3 five-state model), smp (§4 Q/H estimation and
//     the Equation (3) solver), timeseries (Table 1 baselines), predict
//     (pooling, evaluation, the caching concurrent Engine).
//   - Runtime: ishare — gateway, state manager, registry, client scheduler,
//     supervisor, retry/breaker stack, and the federated multi-gateway
//     control plane (consistent-hash sharding, replication, forwarding);
//     faultnet injects deterministic network faults for the chaos tests.
//   - Evaluation: fgcssim (whole-deployment simulation) and experiments
//     (the figure/table regeneration harness).
//
// The executables live under cmd/: ishared (host node / registry /
// federation peer), isharec (client CLI), experiments, predict, tracegen,
// traceinfo, fleetsim (fleet-scale simulation), benchgate (the ensemble,
// fleet and SLO gates) and doccheck. The benchmark is the separate bench/
// module, run by `make bench`.
//
// See README.md for operations (quickstarts, flag reference,
// troubleshooting), ARCHITECTURE.md for the codebase map, DESIGN.md for
// design rationale, and EXPERIMENTS.md for paper-vs-measured results of
// every figure. The root package exists to carry the repository-level
// benchmarks in bench_test.go.
package fgcs
