// Package fgcs is a from-scratch Go implementation of "Resource Availability
// Prediction in Fine-Grained Cycle Sharing Systems" (Ren, Lee, Eigenmann,
// Bagchi — HPDC 2006): the five-state resource availability model, the
// semi-Markov temporal-reliability predictor, the linear time-series
// baselines, the iShare FGCS runtime, the host-contention simulator behind
// the Th1/Th2 thresholds, and the synthetic testbed-trace generator, with a
// benchmark harness that regenerates every figure of the paper's evaluation.
//
// The library lives under internal/, the executables under cmd/, and the
// benchmark in the separate bench/ module. README.md covers operations
// (quickstarts, the flag tables, troubleshooting), ARCHITECTURE.md maps the
// packages, DESIGN.md gives the design and its reasons, and EXPERIMENTS.md
// the paper-vs-measured results of every figure. The root package carries
// the repository-level benchmarks in bench_test.go.
package fgcs
