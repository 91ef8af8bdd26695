package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edbp/internal/cluster"
	tracepkg "edbp/internal/trace"
)

// TestDrainEnqueueRace hammers intake from 8 goroutines while Drain flips
// the server, repeatedly. Drain starts only once the first stream has been
// accepted, so submissions race the queue's close. Every submission must
// resolve deterministically: a 200 stream that ends in its result (the
// pool finishes every job queued before the close, and Drain returning nil
// proves it), or a 503 with a Retry-After header and a typed code. No hung
// request, no send-on-closed-channel panic (the race detector covers the
// close-during-send window), no bare 503.
func TestDrainEnqueueRace(t *testing.T) {
	type outcome struct {
		code       int
		retryAfter string
		errCode    string
		last       string // a 200 stream's terminal frame
	}
	draining := 0
	for round := 0; round < 4; round++ {
		s := newServer(serverOptions{queueDepth: 4, workers: 2})
		ts := httptest.NewServer(s.Handler())

		const clients, perClient = 8, 6
		results := make(chan outcome, clients*perClient)
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
					resp, err := http.Post(ts.URL+"/run?stream=1", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					o := outcome{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
					if resp.StatusCode == http.StatusOK {
						accept()
						cluster.ParseSSE(resp.Body, func(name string, _ []byte) { o.last = name })
					} else {
						var e cluster.ErrorBody
						json.NewDecoder(resp.Body).Decode(&e)
						o.errCode = e.Code
					}
					resp.Body.Close()
					results <- o
				}
			}(i)
		}
		close(start)

		select {
		case <-accepted:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: no stream accepted", round)
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
		for r := range results {
			switch r.code {
			case http.StatusOK:
				if r.last != "result" {
					t.Fatalf("round %d: accepted stream ended with %q, want its result", round, r.last)
				}
				finished++
			case http.StatusServiceUnavailable:
				if r.retryAfter == "" {
					t.Fatalf("round %d: 503 %q without Retry-After", round, r.errCode)
				}
				switch r.errCode {
				case cluster.CodeDraining:
					draining++
				case cluster.CodeQueueFull:
				default:
					t.Fatalf("round %d: 503 with untyped code %q", round, r.errCode)
				}
			default:
				t.Fatalf("round %d: submission = %d (%q), want 200 or 503", round, r.code, r.errCode)
			}
		}
		if finished == 0 {
			t.Errorf("round %d: no stream ended in its result", round)
		}
	}
	if draining == 0 {
		t.Error("no submission met the drain: the enqueue-versus-close window was never reached")
	}
}

// TestDrainAbortMarksPendingFailed wedges the single worker on the
// holdJobs gate with one streamed run and queues a second, then drains
// with a deadline far shorter than the wedge. The aborted drain must (a)
// return an error naming the pending count, (b) refuse new streams as
// draining, (c) end both held streams in a drain_aborted error frame — no
// phantom in-flight run after shutdown — and (d) keep both jobs failed
// after the worker wakes up and dequeues them: neither is simulated.
func TestDrainAbortMarksPendingFailed(t *testing.T) {
	gate := make(chan struct{})
	s := newServer(serverOptions{queueDepth: 4, workers: 1, holdJobs: gate})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	pending := holdStreams(t, s, ts.URL, baselineBody(1), baselineBody(2))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := s.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("drain with a wedged worker returned nil")
	}
	if !strings.Contains(err.Error(), "drain aborted with 2 jobs") {
		t.Errorf("drain error = %v, want it to count 2 pending jobs", err)
	}
	refuseStream(t, ts.URL, baselineBody(3), cluster.CodeDraining)
	for i := 0; i < 2; i++ {
		r := <-pending
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("held stream = %d, %v", r.code, r.err)
		}
		if e := errorFrame(t, r.events); e.Code != cluster.CodeDrainAborted {
			t.Errorf("drain-aborted run's error frame = %+v, want code %q", e, cluster.CodeDrainAborted)
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

// TestStreamSamplerUnbound drives sampleRun directly through the client-
// disconnect path: ctx is cancelled while the run (lr.done) is still open.
// The sampler must close its frames channel and exit — the ranged read
// below only returns if it does.
func TestStreamSamplerUnbound(t *testing.T) {
	rec := tracepkg.NewRecorder(tracepkg.Options{Label: "t", EventCap: 8, SampleCap: 8, SampleEvery: 1e-3})
	lr := &liveRun{label: "t", rec: rec, done: make(chan struct{})}
	defer close(lr.done)

	ctx, cancel := context.WithCancel(context.Background())
	frames := sampleRun(ctx, lr)
	cancel() // the client went away; the run is still in flight
	select {
	case _, ok := <-frames:
		for ok {
			_, ok = <-frames
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sampler did not close frames after ctx cancellation")
	}
}

// TestStreamAbortGoroutineBaseline opens streamed runs behind a frozen
// worker (each handler parks waiting for a live run that never comes),
// aborts the clients, and asserts the process goroutine count returns to
// its pre-stream baseline — neither the handler's wait nor a sampler may
// outlive the request.
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
		postStream(ctx, ts.URL, baselineBody(seed))
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
			t.Fatalf("goroutines %d > baseline %d after aborted streams\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
