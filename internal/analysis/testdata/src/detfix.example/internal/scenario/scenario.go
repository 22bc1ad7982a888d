// Package scenario is a determinism-analyzer fixture proving the goroutine
// exemption is scoped to internal/harness alone: a scenario package that
// spawns its own workers instead of fanning out through harness.Parallel is
// a finding.
package scenario

// Sweep hand-rolls a worker pool: not allowed outside internal/harness.
func Sweep(n int, check func(i int)) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		go func() { // want `go statement in simulation package`
			check(i)
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
}
