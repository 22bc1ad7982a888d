// Package switchsim is a determinism-analyzer fixture standing in for a
// simulation package (its import path ends in internal/switchsim).
package switchsim

import (
	"fmt"
	"math/rand" // want `import of math/rand in simulation package`
	"sort"
	"time"
)

// WallClock exercises the time-package rules.
func WallClock() int64 {
	now := time.Now() // want `time.Now reads the wall clock`
	time.Sleep(1)     // want `time.Sleep reads the wall clock`
	return now.UnixNano() + int64(rand.Int())
}

// AllowedWallClock shows a justified suppression.
func AllowedWallClock() time.Time {
	//simlint:allow(determinism) fixture: wall clock feeds a perf counter only
	return time.Now()
}

// Spawn exercises the goroutine and select rules.
func Spawn(ch chan int) {
	go func() { ch <- 1 }() // want `go statement in simulation package`
	select {                // want `select statement in simulation package`
	case <-ch:
	default:
	}
}

// SumMap ranges over a built-in map: a finding at the range expression even
// though this body happens to be order-insensitive.
func SumMap(m map[int]int) int {
	total := 0
	for _, v := range m { // want `range over built-in map in simulation package`
		total += v
	}
	return total
}

// EmitSorted is the sanctioned form: range a sorted slice of keys.
func EmitSorted(keys []int, m map[int]string) {
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// AllowedEmit shows a justified suppression on the preceding line.
func AllowedEmit(m map[int]string) {
	//simlint:allow(determinism) fixture: debug dump, never reaches figures
	for k := range m {
		fmt.Println(k)
	}
}
