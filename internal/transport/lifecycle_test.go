package transport

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// lifecycleCut is where a lifecycle row drops the connection.
type lifecycleCut int

const (
	cutNone lifecycleCut = iota
	// cutFirstGoodbye: the first closer's GOODBYE has crossed and been
	// acknowledged; the second closer is still producing.
	cutFirstGoodbye
	// cutBothGoodbyes: both GOODBYEs have crossed; the first closer's
	// final CUMACK, acknowledging the second's, is parked in its Write.
	cutBothGoodbyes
)

func (c lifecycleCut) String() string {
	return [...]string{"none", "after_first_goodbye", "after_both_goodbyes"}[c]
}

// onceHandler counts HandleLinkClose calls and records the first.
type onceHandler struct {
	*recordingHandler
	closes atomic.Int32
}

func (h *onceHandler) HandleLinkClose(err error) {
	if h.closes.Add(1) == 1 {
		h.recordingHandler.HandleLinkClose(err)
	}
}

// TestLinkLifecycle is the link lifecycle (DESIGN.md §6) as a matrix: who
// closes first × where the connection is cut × how many frames the second
// closer has unacknowledged at the cut × Reconnect. Every row: each side's
// HandleLinkClose is called exactly once, with nil (every row here ends a
// conversation both sides chose to end); each Close returns nil within
// the close bound (closeTimeout) of its call; the second closer's late
// sends are delivered exactly once and in order, or refused with
// ErrLinkClosed; and no link goroutine outlives the pair.
//
// The rule under test: with Reconnect, a connection lost before the
// conversation is over — the peer's GOODBYE arrived *and* ours is
// acknowledged — is an outage like any other, whatever is unacknowledged.
// A finished node sits in Close waiting for its peer's GOODBYE, because the
// peer may still be producing; a cut during that wait used to write the
// finished peer off when nothing of the producer's was unacknowledged, and
// fail its later sends (the cut_after_first_goodbye/unacked_0/reconnect_true
// rows), or tear the closer down mid-recovery and leave the producer's
// senders parked until its reconnect deadline (the unacked_1 rows,
// TestExecutePartitionResume 1 run in 90 under load).
func TestLinkLifecycle(t *testing.T) {
	for _, dialerFirst := range []bool{true, false} {
		first := "acceptor"
		if dialerFirst {
			first = "dialer"
		}
		for _, cut := range []lifecycleCut{cutNone, cutFirstGoodbye, cutBothGoodbyes} {
			for _, unacked := range []int{0, 1} {
				for _, reconnect := range []bool{true, false} {
					name := fmt.Sprintf("%s_closes_first/cut_%v/unacked_%d/reconnect_%v", first, cut, unacked, reconnect)
					t.Run(name, func(t *testing.T) { lifecycleRow(t, dialerFirst, cut, unacked, reconnect) })
				}
			}
		}
	}
}

func lifecycleRow(t *testing.T, dialerFirst bool, cut lifecycleCut, unacked int, reconnect bool) {
	const rowCloseTimeout = 2 * time.Second
	defer func(d time.Duration) { closeTimeout = d }(closeTimeout)
	closeTimeout = rowCloseTimeout
	before := runtime.NumGoroutine()
	gt := newGatedTransport()
	hd := &onceHandler{recordingHandler: newRecordingHandler()}
	ha := &onceHandler{recordingHandler: newRecordingHandler()}
	dialer, acceptor, stop := batchChaosPair(t, gt, func(cfg *LinkConfig) {
		if !reconnect {
			cfg.Reconnect = ReconnectConfig{}
		}
	}, hd, ha)
	// f closes first, s second; s sends on edge.
	f, s, fh, sh, fconn, edge := dialer, acceptor, hd, ha, gt.dialed(0), uint16(9)
	if !dialerFirst {
		f, s, fh, sh, fconn, edge = acceptor, dialer, ha, hd, gt.accepted(0), 7
	}
	msg := func(i int) []byte { return []byte{byte(edge), 0, byte(i), 0} }

	closed := func(l *Link) (chan error, time.Time) {
		ch := make(chan error, 1)
		go func() { ch <- l.Close() }()
		return ch, time.Now()
	}
	fClosed, fStart := closed(f)
	if err := <-sh.closed; err != nil {
		t.Fatalf("second closer heard %v, want the first's GOODBYE", err)
	}
	waitFor(t, "the first GOODBYE's acknowledgement", func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.unacked) == 0
	})
	// Delivered but not yet covered by a cumulative ack (one goes out every
	// 64 frames), so still in the second closer's resend buffer.
	sent := 0
	for ; sent < unacked; sent++ {
		if err := s.SendData(edge, msg(sent)); err != nil {
			t.Fatal(err)
		}
	}
	fh.waitData(t, edge, unacked)

	var sClosed chan error
	var sStart time.Time
	switch cut {
	case cutFirstGoodbye:
		gt.cut()
		// Without this wait the late sends race the reader's notice of the cut.
		waitFor(t, "the second closer's reader to see the cut", func() bool {
			return s.Liveness().State != "up" || s.Stats().Resumes > 0
		})
	case cutBothGoodbyes:
		fconn.shut()
		sClosed, sStart = closed(s)
		fconn.waitParked(t) // the first closer's CUMACK for the second GOODBYE
		fconn.fail(errSevered)
		gt.cut()
		fconn.open()
	}
	if cut != cutBothGoodbyes {
		delivered := cut == cutNone || reconnect
		for i := 0; i < 3; i++ {
			err := s.SendData(edge, msg(sent))
			switch {
			case delivered && err != nil:
				t.Fatalf("late send %d: %v, want delivery", i, err)
			case !delivered && !errors.Is(err, ErrLinkClosed):
				t.Fatalf("late send %d: %v, want ErrLinkClosed", i, err)
			case delivered:
				sent++
			}
		}
		sClosed, sStart = closed(s)
	}

	for _, c := range []struct {
		who   string
		ch    chan error
		start time.Time
	}{{"first closer", fClosed, fStart}, {"second closer", sClosed, sStart}} {
		select {
		case err := <-c.ch:
			if err != nil {
				t.Errorf("%s's Close: %v, want nil", c.who, err)
			}
		case <-time.After(time.Until(c.start.Add(rowCloseTimeout + time.Second))):
			t.Fatalf("%s's Close still running %v after it began (close bound %v)", c.who, time.Since(c.start).Round(time.Millisecond), rowCloseTimeout)
		}
	}
	got := fh.waitData(t, edge, 0)
	if len(got) != sent {
		t.Errorf("first closer received %d of the second's %d messages", len(got), sent)
	}
	for i, m := range got {
		if int(m[2]) != i {
			t.Fatalf("message %d carries %d: duplicated or out of order", i, m[2])
		}
	}
	if err := <-fh.closed; err != nil {
		t.Errorf("first closer's HandleLinkClose(%v), want nil", err)
	}
	if nd, na := hd.closes.Load(), ha.closes.Load(); nd != 1 || na != 1 {
		t.Errorf("HandleLinkClose called %d times on the dialer, %d on the acceptor; want once each", nd, na)
	}
	stop()
	waitFor(t, "every link goroutine to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestFailedSendSaysWhy: a send on a failed link names the peer and the
// cause its handler was given, and is still ErrLinkClosed.
func TestFailedSendSaysWhy(t *testing.T) {
	gt := newGatedTransport()
	hd, ha := newRecordingHandler(), newRecordingHandler()
	dialer, acceptor := linkPair(t, gt, "says-why", hd, ha)
	defer acceptor.Abort()
	gt.cut()
	var cause error
	select {
	case cause = <-hd.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the dialer never noticed the cut")
	}
	if cause == nil {
		t.Fatal("a cut fail-fast link closed with nil")
	}
	err := dialer.SendData(7, dataMsg(0))
	if !errors.Is(err, ErrLinkClosed) || !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), cause.Error()) {
		t.Fatalf("send on the failed link: %v; want ErrLinkClosed naming node 1 and %q", err, cause)
	}
	dialer.Close()
}
