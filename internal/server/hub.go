package server

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synopses"
)

// frame is one server-sent event: an event class name plus its JSON
// payload, marshalled once at publish time regardless of subscriber count.
type frame struct {
	event string
	data  []byte
}

// hub fans SSE frames — recognised complex events, critical points and
// forecast updates — out to subscribers. Publishing never blocks: a
// subscriber whose buffer is full loses the frame (counted in dropped), so
// a stalled client cannot backpressure the ingest workers.
type hub struct {
	mu     sync.Mutex
	subs   map[int]chan frame
	nextID int
	buf    int
	closed bool

	dropped atomic.Int64
	// published counts frames fanned out (once per frame, not per
	// subscriber); synopses counts the "synopsis" frames among them.
	published atomic.Int64
	synopses  atomic.Int64
}

// subscriberBuffer is each /events subscriber's frame buffer: a slow
// subscriber drops frames rather than stall ingest.
const subscriberBuffer = 64

func newHub(buf int) *hub {
	return &hub{subs: make(map[int]chan frame), buf: buf}
}

// publishBatch delivers what one ingest batch emitted: each recognised
// complex event as a frame of its CER type, then each critical point as a
// "synopsis" frame. With no subscribers the frames are counted but never
// built — this runs on the ingest workers' batch callback, and a headless
// deployment should not pay JSON cost per detection.
func (h *hub) publishBatch(evs []model.Event, cps []synopses.CriticalPoint) {
	h.synopses.Add(int64(len(cps)))
	if h.subscribers() == 0 {
		h.published.Add(int64(len(evs) + len(cps)))
		return
	}
	for _, ev := range evs {
		h.publishJSON(ev.Type, toEventJSON(ev))
	}
	for _, cp := range cps {
		h.publishJSON("synopsis", toSynopsisPointJSON(cp, true))
	}
}

// publishJSON marshals v and publishes it as one frame of the given class.
func (h *hub) publishJSON(event string, v any) {
	if data, err := json.Marshal(v); err == nil {
		h.publish(frame{event: event, data: data})
	}
}

// publish delivers one frame to every subscriber.
func (h *hub) publish(f frame) {
	h.published.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for _, ch := range h.subs {
		select {
		case ch <- f:
		default:
			h.dropped.Add(1)
		}
	}
}

// subscribe registers a new subscriber and returns its channel and an
// unsubscribe function.
func (h *hub) subscribe() (<-chan frame, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.nextID
	h.nextID++
	ch := make(chan frame, h.buf)
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	h.subs[id] = ch
	return ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(ch)
		}
	}
}

// subscribers returns the current subscriber count.
func (h *hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// close disconnects all subscribers; further publishes are dropped.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
}
