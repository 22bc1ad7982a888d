// Package rlb is a from-scratch Go reproduction of "RLB: Reordering-Robust
// Load Balancing in Lossless Datacenter Networks" (Hu et al., ICPP 2023).
//
// The repository contains a packet-level discrete-event simulator for
// lossless (PFC-enabled) Ethernet fabrics — shared-memory switches, DCQCN
// congestion control, a RoCEv2-style go-back-N transport — four baseline
// load balancers (Presto, LetFlow, Hermes, DRILL), and RLB itself: a
// building block that predicts PFC triggering from the derivative of ingress
// queue lengths and reroutes or recirculates packets so that load balancing
// stays effective without reordering.
//
// Entry points:
//
//   - internal/core      — RLB (the paper's contribution)
//   - internal/harness   — experiment runner and the paper-figure registry
//   - cmd/figures        — regenerate every figure
//   - cmd/rlbsim         — run a single scenario
//   - examples/          — runnable walkthroughs
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results.
package rlb
