package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edbp/internal/cluster"
)

// TestDrainEnqueueRace hammers intake from 8 goroutines while Drain flips
// the server, repeatedly. Drain starts only once the first run has been
// answered, so submissions race the queue's close. Every submission must
// resolve deterministically: a 200 with its Result (the pool finishes
// every job queued before the close, and Drain returning nil proves it),
// or a 503 with a Retry-After header and a typed code. No hung request, no
// send-on-closed-channel panic (the race detector covers the
// close-during-send window), no bare 503.
func TestDrainEnqueueRace(t *testing.T) {
	draining := 0
	for round := 0; round < 4; round++ {
		s := newServer(serverOptions{queueDepth: 4, workers: 2})
		ts := httptest.NewServer(s.Handler())

		const clients, perClient = 8, 6
		results := make(chan answer, clients*perClient)
		start := make(chan struct{})
		accepted := make(chan struct{})
		accept := sync.OnceFunc(func() { close(accepted) })
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				for k := 0; k < perClient; k++ {
					body := fmt.Sprintf(`{"app":"crc32","scheme":"baseline","scale":0.05,"seed":%d}`,
						round*1000+i*100+k+1)
					a := postRun(context.Background(), ts.URL, body)
					if a.err != nil {
						t.Errorf("submit: %v", a.err)
						return
					}
					if a.code == http.StatusOK {
						accept()
					}
					results <- a
				}
			}(i)
		}
		close(start)

		select {
		case <-accepted:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: no run answered", round)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		cancel()
		wg.Wait()
		ts.Close()
		close(results)

		finished := 0
		for a := range results {
			switch a.code {
			case http.StatusOK:
				if a.out.Instructions == 0 {
					t.Fatalf("round %d: a 200 without its result: %+v", round, a.out)
				}
				finished++
			case http.StatusServiceUnavailable:
				if a.retryAfter == "" {
					t.Fatalf("round %d: 503 %q without Retry-After", round, a.e.Code)
				}
				switch a.e.Code {
				case cluster.CodeDraining:
					draining++
				case cluster.CodeQueueFull:
				default:
					t.Fatalf("round %d: 503 with untyped code %q", round, a.e.Code)
				}
			default:
				t.Fatalf("round %d: submission = %d (%q), want 200 or 503", round, a.code, a.e.Code)
			}
		}
		if finished == 0 {
			t.Errorf("round %d: no run answered with its result", round)
		}
	}
	if draining == 0 {
		t.Error("no submission met the drain: the enqueue-versus-close window was never reached")
	}
}

// TestDrainAbortMarksPendingFailed wedges the single worker on the
// holdJobs gate with one run and queues a second, then drains with a
// deadline far shorter than the wedge. The aborted drain must (a) return
// an error naming the pending count, (b) refuse new runs as draining, (c)
// answer both held runs 503 drain_aborted with Retry-After — no phantom
// in-flight run after shutdown — and (d) keep both jobs failed after the
// worker wakes up and dequeues them: neither is simulated.
func TestDrainAbortMarksPendingFailed(t *testing.T) {
	gate := make(chan struct{})
	s := newServer(serverOptions{queueDepth: 4, workers: 1, holdJobs: gate})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	pending := holdRuns(t, s, ts.URL, baselineBody(1), baselineBody(2))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := s.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("drain with a wedged worker returned nil")
	}
	if !strings.Contains(err.Error(), "drain aborted with 2 jobs") {
		t.Errorf("drain error = %v, want it to count 2 pending jobs", err)
	}
	refuseRun(t, ts.URL, baselineBody(3), cluster.CodeDraining)
	for i := 0; i < 2; i++ {
		a := <-pending
		if a.err != nil || a.code != http.StatusServiceUnavailable || a.e.Code != cluster.CodeDrainAborted || a.retryAfter == "" {
			t.Errorf("drain-aborted run = %d %+v (Retry-After %q, %v), want 503 with code %q",
				a.code, a.e, a.retryAfter, a.err, cluster.CodeDrainAborted)
		}
	}

	// Release the worker. It dequeues the already-failed jobs; job.start
	// must refuse them so neither is resurrected (or simulated).
	release()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if s.met.runsOK.Value() != 0 {
		t.Errorf("aborted jobs were simulated anyway (runs_ok = %g)", s.met.runsOK.Value())
	}
}

// TestStreamAbortGoroutineBaseline opens runs behind a frozen worker
// (each handler parks waiting for a job that never starts), aborts the
// clients, and asserts the process goroutine count returns to its
// pre-request baseline — the handler's wait may not outlive the request.
func TestStreamAbortGoroutineBaseline(t *testing.T) {
	gate := make(chan struct{})
	_, ts := testServer(t, serverOptions{workers: 1, holdJobs: gate})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the server's own cleanup drains it
	baseline := runtime.NumGoroutine()

	for seed := 1; seed <= 3; seed++ {
		// The worker holds the first job before it ever starts and the
		// queue holds the rest, so the only way out is the request context
		// expiring — exactly a client that gave up.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		postRun(ctx, ts.URL, baselineBody(seed))
		cancel()
	}

	// Connection teardown is asynchronous; give the runtime a bounded
	// window to shed the per-request goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after aborted runs\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
