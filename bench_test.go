// Benchmarks that regenerate each figure of the paper's evaluation section.
// One benchmark per figure; `go test -bench=Fig -benchtime=1x` prints every
// table once. The scale is reduced (see harness.BenchScale and DESIGN.md
// substitution 4); run `cmd/figures -scale paper` for full-size fabrics.
package rlb_test

import (
	"testing"

	"github.com/rlb-project/rlb/internal/harness"
)

// benchSeed keeps benchmark runs comparable across invocations.
const benchSeed = 7

func logTable(b *testing.B, i int, tables ...*harness.Table) {
	if i != 0 {
		return
	}
	for _, t := range tables {
		b.Log("\n" + t.String())
	}
}

func BenchmarkFig3MotivationPFC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig3(harness.BenchScale, benchSeed))
	}
}

func BenchmarkFig4aAffectedPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig4Paths(harness.BenchScale, benchSeed))
	}
}

func BenchmarkFig4bContinuousBursts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig4Bursts(harness.BenchScale, benchSeed))
	}
}

func BenchmarkFig6FCTCDFSymmetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig6(harness.BenchScale, benchSeed))
	}
}

func BenchmarkFig7AsymmetricLoadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig7(harness.BenchScale, benchSeed)...)
	}
}

func BenchmarkFig8aIncastDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig8Degree(harness.BenchScale, benchSeed))
	}
}

func BenchmarkFig8bIncastResponseSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig8Size(harness.BenchScale, benchSeed))
	}
}

func BenchmarkFig9RecirculationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig9(harness.BenchScale, benchSeed)...)
	}
}

func BenchmarkFig10aQthSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig10Qth(harness.BenchScale, benchSeed))
	}
}

func BenchmarkFig10bDeltaTSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.Fig10DeltaT(harness.BenchScale, benchSeed))
	}
}

func BenchmarkExtIRNComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logTable(b, i, harness.ExtIRN(harness.BenchScale, benchSeed))
	}
}
