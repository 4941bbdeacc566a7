package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"edonkey/internal/protocol"
)

// The scheduler cannot use time.Sleep: the runtime's timers wake with
// millisecond granularity (about 1 ms late on a small VM), which would
// show up as client lag. It runs on its own OS thread with a 1 ns timer
// slack and sleeps with nanosleep(2), which wakes within ~10 µs of its
// target from a short sleep and later from a long one. It aims a quarter
// of the gap (10–100 µs) before the next due time and spins the rest,
// and spins outright when the gap is under spinBelow.
const (
	spinBelow    = 15 * time.Microsecond
	minEarly     = 10 * time.Microsecond
	maxEarly     = 100 * time.Microsecond
	replyTimeout = 2 * time.Second
)

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK, prctl(2)

// openLoop sends a request stream over a fixed set of connections on a
// wall-clock schedule that never waits for replies: request k is due at
// start + k/rate and goes to connection k mod len(conns). A single
// scheduler writes every request already due as one burst per
// connection; one reader per connection takes replies in FIFO order and
// checks each against the oracle bytes.
type openLoop struct {
	conns  []net.Conn
	frames [][]byte
	want   [][]byte
	reqs   []int32
	rate   float64
	start  time.Time

	// Per request, in ns since start. sent is written by the scheduler,
	// done and ok by the connection's reader; both finish before run
	// returns.
	sent []int64
	done []int64
	ok   []bool

	dead []atomic.Bool // connection failed; the scheduler stops writing to it
}

func (l *openLoop) due(k int) time.Duration {
	return time.Duration(float64(k) / l.rate * float64(time.Second))
}

// run executes the schedule. window, when set, is called at the due time
// of request mark (start of the measured window) and once every reply is
// in or given up on (its end).
func (l *openLoop) run(mark int, window func()) {
	n := len(l.reqs)
	l.sent = make([]int64, n)
	l.done = make([]int64, n)
	l.ok = make([]bool, n)
	l.dead = make([]atomic.Bool, len(l.conns))
	l.start = time.Now().Add(20 * time.Millisecond)

	var wg sync.WaitGroup
	for c := range l.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l.read(c)
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.write()
	}()
	if window != nil {
		time.Sleep(time.Until(l.start.Add(l.due(mark))))
		window()
	}
	// Watchdog: a reply still missing replyTimeout after the last due
	// time will not come; unblock the readers so they fail it.
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Until(l.start.Add(l.due(n-1) + replyTimeout))):
		for _, c := range l.conns {
			c.SetReadDeadline(time.Now())
		}
		<-finished
	}
	if window != nil {
		window()
	}
}

func (l *openLoop) write() {
	// The thread is handed back with the default slack restored (0
	// selects it) rather than left to exit with this goroutine: edserved
	// is tied to the thread that started it by its parent-death signal.
	runtime.LockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer func() {
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
		runtime.UnlockOSThread()
	}()
	nc := len(l.conns)
	bufs := make([][]byte, nc)
	n := len(l.reqs)
	for next := 0; next < n; {
		now := time.Since(l.start)
		if gap := l.due(next) - now; gap > 0 {
			if gap > spinBelow {
				ts := syscall.NsecToTimespec(int64(gap - min(max(gap/4, minEarly), maxEarly)))
				syscall.Nanosleep(&ts, nil)
			}
			continue
		}
		first := next
		for ; next < n && l.due(next) <= now; next++ {
			c := next % nc
			bufs[c] = append(bufs[c], l.frames[l.reqs[next]]...)
		}
		stamp := int64(time.Since(l.start))
		for k := first; k < next; k++ {
			l.sent[k] = stamp
		}
		for c, b := range bufs {
			if len(b) == 0 || l.dead[c].Load() {
				continue
			}
			l.conns[c].SetWriteDeadline(time.Now().Add(replyTimeout))
			if _, err := l.conns[c].Write(b); err != nil {
				l.dead[c].Store(true)
			}
			bufs[c] = b[:0]
		}
	}
}

// read consumes connection c's replies in request order. A reply that
// differs from the oracle fails its request; a read error, the run's
// watchdog deadline or a desynchronized frame fails every request still
// outstanding on the connection.
func (l *openLoop) read(c int) {
	nc := len(l.conns)
	conn := l.conns[c]
	br := bufio.NewReaderSize(conn, 256<<10)
	var body []byte
	for k := c; k < len(l.reqs); k += nc {
		ok, err := readReply(br, &body, l.want[l.reqs[k]])
		if err != nil {
			l.dead[c].Store(true)
			conn.Close()
			return // outstanding requests keep ok=false
		}
		l.done[k] = int64(time.Since(l.start))
		l.ok[k] = ok
	}
}

// readReply reads one frame into *body and reports whether it equals
// want byte for byte. Only an unframeable stream is an error; a
// well-framed wrong reply is a mismatch and the stream stays usable.
func readReply(br *bufio.Reader, body *[]byte, want []byte) (bool, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return false, err
	}
	if hdr[0] != protocol.ProtoMarker {
		return false, protocol.ErrBadMarker
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	if size == 0 || size > protocol.MaxMessageSize {
		return false, protocol.ErrTooLarge
	}
	if uint32(cap(*body)) < size {
		*body = make([]byte, size)
	}
	b := (*body)[:size]
	if _, err := io.ReadFull(br, b); err != nil {
		return false, err
	}
	return len(want) == len(hdr)+len(b) && bytes.Equal(hdr[:], want[:5]) && bytes.Equal(b, want[5:]), nil
}
