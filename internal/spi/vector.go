package spi

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"
)

// Vectorized (blocked) execution. A blocking factor B groups B consecutive
// graph iterations into one super-iteration: each actor fires B times back
// to back and every interprocessor edge moves B tokens in a single packed
// VTS-style message (a "slab"), so headers, credits, and acks are paid once
// per block instead of once per token. Slabs are consumer-aligned: each
// holds the B tokens one consumer block reads, so a delay d that is not a
// whole multiple of B preloads ⌊d/B⌋ slabs and the sender carries the
// other d mod B tokens at the head of its next slab (edgeSlot.pack);
// same-processor edges always stay token-granular, since they never touch
// the wire.
//
// Slab layout, chosen so both sides can size and split a block without any
// per-edge negotiation beyond the manifest:
//
//	per-token-static edge  (fixed token size s):  n tokens of s bytes,
//	    concatenated; the count is implicit in the length.
//	per-token-dynamic edge (bounded token size):  u16 count | count x u32
//	    token sizes | payloads, concatenated.
//
// A blocked edge is always carried in SPI_dynamic framing (a run that ends
// inside a block sends its open slab short), with MaxBytes covering a full
// slab.

const (
	slabCountBytes = 2 // u16 token count, dynamic-token slabs only
	slabSizeBytes  = 4 // u32 per-token size, dynamic-token slabs only
)

// SlabBound returns the maximum encoded size of a slab of n tokens whose
// individual payloads are bounded by tokenBytes. It is the MaxBytes of a
// blocked edge's SPI channel.
func SlabBound(tokenBytes int, dynamic bool, n int) int {
	if dynamic {
		return slabCountBytes + n*slabSizeBytes + n*tokenBytes
	}
	return n * tokenBytes
}

// beginSlab appends the head of a slab of n tokens to dst: for a
// dynamic-token slab the count and a zeroed size table, so payloads can be
// appended one firing at a time; a static-token slab has no head.
func beginSlab(dst []byte, n int, dynamic bool) []byte {
	if !dynamic {
		return dst
	}
	base := len(dst)
	dst = append(dst, make([]byte, slabCountBytes+n*slabSizeBytes)...)
	binary.BigEndian.PutUint16(dst[base:], uint16(n))
	return dst
}

// appendSlabToken adds the idx-th token to the slab begun at dst[base:] with
// beginSlab. A static-token slab zero-pads every payload to exactly
// tokenBytes, matching the scalar SPI_static contract; a dynamic-token slab
// records the payload size in the reserved table. The payload is copied, so
// callers may reuse its buffer immediately.
func appendSlabToken(dst []byte, base, idx int, payload []byte, tokenBytes int, dynamic bool) ([]byte, error) {
	if len(payload) > tokenBytes {
		return nil, fmt.Errorf("spi: slab token %d: payload %d bytes exceeds token bound %d", idx, len(payload), tokenBytes)
	}
	if dynamic {
		binary.BigEndian.PutUint32(dst[base+slabCountBytes+idx*slabSizeBytes:], uint32(len(payload)))
		return append(dst, payload...), nil
	}
	dst = append(dst, payload...)
	return append(dst, make([]byte, tokenBytes-len(payload))...), nil
}

// PackSlab encodes tokens as one slab appended to dst (reusing its
// capacity) and returns the result. tokenBytes bounds each payload;
// dynamic selects the per-token-size layout. Payloads are copied.
func PackSlab(dst []byte, tokens [][]byte, tokenBytes int, dynamic bool) ([]byte, error) {
	base := len(dst)
	slab := beginSlab(dst, len(tokens), dynamic)
	var err error
	for i, tok := range tokens {
		if slab, err = appendSlabToken(slab, base, i, tok, tokenBytes, dynamic); err != nil {
			return nil, err
		}
	}
	return slab, nil
}

// UnpackSlab splits a slab into per-token views aliasing slab's backing
// array, appended to views (reusing its capacity). The slab must hold at
// least min tokens — a consumer's final partial block may need fewer tokens
// than the (full) slab a delayed producer sent, so extras are allowed and
// returned for the caller to ignore.
func UnpackSlab(slab []byte, min, tokenBytes int, dynamic bool, views [][]byte) ([][]byte, error) {
	views = views[:0]
	if dynamic {
		if len(slab) < slabCountBytes {
			return nil, fmt.Errorf("spi: slab truncated: %d bytes, need %d-byte count", len(slab), slabCountBytes)
		}
		n := int(binary.BigEndian.Uint16(slab[:slabCountBytes]))
		if n < min {
			return nil, fmt.Errorf("spi: slab holds %d tokens, consumer needs %d", n, min)
		}
		header := slabCountBytes + n*slabSizeBytes
		if len(slab) < header {
			return nil, fmt.Errorf("spi: slab truncated: %d bytes, need %d-byte size table", len(slab), header)
		}
		off := header
		for i := 0; i < n; i++ {
			sz := int(binary.BigEndian.Uint32(slab[slabCountBytes+i*slabSizeBytes:]))
			if sz > tokenBytes {
				return nil, fmt.Errorf("spi: slab token %d: size %d exceeds token bound %d", i, sz, tokenBytes)
			}
			if off+sz > len(slab) {
				return nil, fmt.Errorf("spi: slab truncated: token %d needs %d bytes past end", i, off+sz-len(slab))
			}
			views = append(views, slab[off:off+sz:off+sz])
			off += sz
		}
		if off != len(slab) {
			return nil, fmt.Errorf("spi: slab has %d trailing bytes", len(slab)-off)
		}
		return views, nil
	}
	if tokenBytes <= 0 || len(slab)%tokenBytes != 0 {
		return nil, fmt.Errorf("spi: slab length %d is not a multiple of token size %d", len(slab), tokenBytes)
	}
	n := len(slab) / tokenBytes
	if n < min {
		return nil, fmt.Errorf("spi: slab holds %d tokens, consumer needs %d", n, min)
	}
	for i := 0; i < n; i++ {
		views = append(views, slab[i*tokenBytes:(i+1)*tokenBytes:(i+1)*tokenBytes])
	}
	return views, nil
}

// VecOptions configures blocked execution for Execute / ExecuteDistributed.
// The zero value is scalar execution.
type VecOptions struct {
	// Block is the blocking factor B: the number of consecutive graph
	// iterations fired per super-iteration. 0 or 1 selects scalar
	// execution, preserving today's behavior exactly.
	Block int
	// StallTimeout arms the progress watchdog: a run with no actor
	// firings and no edge message/credit movement for this long is
	// aborted with a *StallError naming the stalled actors instead of
	// deadlocking silently. 0 disables. See DistOptions.StallTimeout.
	StallTimeout time.Duration
	// Context, when non-nil, bounds the run: cancellation releases every
	// blocked actor and the execution returns the context error.
	Context context.Context
}
