package cluster

import (
	"bufio"
	"io"
	"strings"
	"sync"
)

// ParseSSE reads a Server-Sent-Events stream and calls emit once per
// event with its name (default "message") and the concatenated data
// payload. It returns when r ends. Only the event: and data: fields are
// interpreted — that is all edbpd's streams emit. An event is dispatched
// at the blank line that ends it; one cut off by the end of r is dropped,
// as the SSE specification requires, so a truncated terminal frame never
// passes for a complete one.
func ParseSSE(r io.Reader, emit func(event string, data []byte)) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	event, data := "", strings.Builder{}
	flush := func() {
		if data.Len() == 0 && event == "" {
			return
		}
		name := event
		if name == "" {
			name = "message"
		}
		emit(name, []byte(data.String()))
		event = ""
		data.Reset()
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
}

// Event is one fan-in stream item: an SSE event name plus its JSON data.
type Event struct {
	Type string
	Data []byte
}

// Hub broadcasts grid events to any number of SSE subscribers. Emits
// never block: a subscriber that cannot keep up loses intermediate gauge
// frames (each frame supersedes the last, so the stream stays truthful)
// but always observes the terminal close.
type Hub struct {
	mu     sync.Mutex
	subs   map[chan Event]bool
	closed bool
	drops  int
}

// NewHub returns an open hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan Event]bool)}
}

// Subscribe registers a new listener. cancel unregisters it; the returned
// channel is closed after cancel or when the hub itself closes.
func (h *Hub) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 256)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	h.subs[ch] = true
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if h.subs[ch] {
				delete(h.subs, ch)
				close(ch)
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// Emit broadcasts one event without blocking.
func (h *Hub) Emit(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
			h.drops++
		}
	}
}

// Close ends the broadcast: every subscriber channel is closed and later
// Emits are dropped.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}

// Drops reports how many events were lost to slow subscribers.
func (h *Hub) Drops() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.drops
}
