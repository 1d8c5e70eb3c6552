package lpc

import (
	"fmt"
	"sync"

	"repro/internal/dsp"
	"repro/internal/spi"
)

// Parallel error generation — the paper's hardware/software co-design
// experiment: only actor D is parallelized, across n PEs. The I/O interface
// splits the frame into overlapping sections (each PE needs M samples of
// history to predict its first sample), sends each PE its section and the
// predictor coefficients, and collects the error values.
//
// The number of coefficients (model order M) and the frame size are not
// known before run time, so both transfers use SPI_dynamic (paper §5.2).

// ParallelStats reports the communication activity of one parallel run.
type ParallelStats struct {
	// Messages and WireBytes aggregate all SPI edges.
	Messages, WireBytes int64
	// Acks and AckBytes aggregate the acknowledgement traffic.
	Acks, AckBytes int64
	// Edges breaks the traffic down per SPI edge, sorted by edge ID.
	Edges []spi.EdgeTraffic
	// PEs is the worker count used.
	PEs int
}

// ParallelResidual computes model.Residual(frame) by distributing the work
// across nPE worker goroutines connected with SPI_dynamic edges, exactly as
// the paper's n-PE hardware configuration does. The result is bit-identical
// to the serial computation (workers receive the overlapping history they
// need). Also returns communication statistics.
func ParallelResidual(model *dsp.LPCModel, frame []float64, nPE int) ([]float64, *ParallelStats, error) {
	if nPE <= 0 {
		return nil, nil, fmt.Errorf("lpc: nPE = %d", nPE)
	}
	if nPE > len(frame) {
		nPE = len(frame)
	}
	m := model.Order()
	p := DeployParams{SampleSize: len(frame), Order: m, PEs: nPE}
	rt := spi.NewRuntime()

	// Upper bounds for the dynamic edges: a full frame plus history for
	// sections, the order for coefficients.
	maxSection := 4 + 8*(len(frame)+m)
	maxCoeffs := 8 * m
	maxErrs := 8 * len(frame)

	type peEdges struct {
		coeffTx, sectTx *spi.Sender
		coeffRx, sectRx *spi.Receiver
		errTx           *spi.Sender
		errRx           *spi.Receiver
	}
	edges := make([]peEdges, nPE)
	for i := 0; i < nPE; i++ {
		var err error
		var e peEdges
		e.coeffTx, e.coeffRx, err = rt.Init(spi.EdgeConfig{
			ID: spi.EdgeID(3 * i), Name: fmt.Sprintf("coeff%d", i),
			Mode: spi.Dynamic, MaxBytes: maxCoeffs, Protocol: spi.UBS,
		})
		if err != nil {
			return nil, nil, err
		}
		e.sectTx, e.sectRx, err = rt.Init(spi.EdgeConfig{
			ID: spi.EdgeID(3*i + 1), Name: fmt.Sprintf("sect%d", i),
			Mode: spi.Dynamic, MaxBytes: maxSection, Protocol: spi.UBS,
		})
		if err != nil {
			return nil, nil, err
		}
		e.errTx, e.errRx, err = rt.Init(spi.EdgeConfig{
			ID: spi.EdgeID(3*i + 2), Name: fmt.Sprintf("err%d", i),
			Mode: spi.Dynamic, MaxBytes: maxErrs, Protocol: spi.UBS,
		})
		if err != nil {
			return nil, nil, err
		}
		edges[i] = e
	}

	// Workers: receive coefficients and section, compute, send errors back.
	var wg sync.WaitGroup
	errCh := make(chan error, nPE)
	for i := 0; i < nPE; i++ {
		start, end, hist := p.sectionOf(i)
		wg.Add(1)
		go func(e peEdges, d *errorGen) {
			defer wg.Done()
			cb, err := e.coeffRx.Receive()
			if err != nil {
				errCh <- err
				return
			}
			sb, err := e.sectRx.Receive()
			if err != nil {
				errCh <- err
				return
			}
			errs, err := d.fireSection(cb, sb)
			if err != nil {
				errCh <- err
				return
			}
			if err := e.errTx.Send(errs); err != nil {
				errCh <- err
			}
		}(edges[i], newErrorGen(nil, m, end-start+hist, end-start))
	}

	// I/O interface: scatter, then gather in PE order. Send copies, so one
	// encode buffer serves every PE.
	coeffs := appendFloats(make([]byte, 0, maxCoeffs), model.Coeffs)
	var sect []byte
	for i := 0; i < nPE; i++ {
		start, end, hist := p.sectionOf(i)
		if err := edges[i].coeffTx.Send(coeffs); err != nil {
			return nil, nil, err
		}
		sect = appendSection(sect[:0], hist, frame[start-hist:end])
		if err := edges[i].sectTx.Send(sect); err != nil {
			return nil, nil, err
		}
	}
	out := make([]float64, 0, len(frame))
	for i := 0; i < nPE; i++ {
		eb, err := edges[i].errRx.Receive()
		if err != nil {
			return nil, nil, err
		}
		if out, err = appendDecoded(out, eb); err != nil {
			return nil, nil, err
		}
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, nil, err
	}

	total := rt.TotalStats()
	return out, &ParallelStats{
		Messages:  total.Messages,
		WireBytes: total.WireBytes,
		Acks:      total.Acks,
		AckBytes:  total.AckBytes,
		Edges:     rt.AllStats(),
		PEs:       nPE,
	}, nil
}

// boundary semantics note: prediction of sample start uses history
// [start-M, start); the first section has no history before sample 0, so
// its first predictions use the zero-extended past, matching
// dsp.LPCModel.Residual exactly.
