package transport

import "time"

// BatchConfig has no effect. It parameterized a deadline coalescer that the
// per-link writer (writer.go) replaced: a link now batches exactly the
// frames that arrive while its previous write is in flight, which needs no
// threshold and no timer. The type and its fields are kept until a
// `benchmark` PR stops naming them (bench/lpc.go, bench/ladder.go).
type BatchConfig struct {
	MaxFrames int
	MaxBytes  int
	MaxDelay  time.Duration
}
