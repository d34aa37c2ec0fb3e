// Package ivm registers translated queries as materialized standing views
// and maintains their answer sets across store epochs.
//
// A Hub attaches to a live store's update hook (store.SetOnApply) and drains
// the per-transaction deltas through one maintainer goroutine. Each standing
// view holds an rdb.ViewState — the program's operator tree materialized
// against the current epoch — advanced update by update:
//
//   - InsertSubtree, when the plan is monotone, seeds the fixpoint kernels
//     with exactly the new base rows and derives only the affected tuples
//     (delta-seeded semi-naive rounds);
//   - DeleteSubtree, when the plan is monotone, takes out of every
//     materialization the tuples that lost their last derivation: the same
//     pass over the operator tree, with the removed rows as the delta and a
//     point probe per candidate deciding whether it is derived again;
//   - UpdateText is a no-op for plans without value selection;
//   - what is left falls back to full re-evaluation with an answer diff, so
//     subscribers always see exact deltas, and is counted by reason
//     (obs.RerunReasons): a non-monotone plan, a text update under a
//     value-selecting plan, an epoch gap, a maintenance error.
//
// Subscribers receive an initial snapshot followed by per-epoch ordered
// deltas (epoch, added, removed). Each subscription owns a bounded buffer; a
// slow consumer overflows it and degrades to a snapshot resync instead of
// blocking the maintainer or growing without bound. A subscription cap
// provides admission control for the serving layer.
package ivm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"xpath2sql/internal/obs"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/rdb"
	"xpath2sql/internal/shred"
	"xpath2sql/internal/store"
)

// ErrSubscriptionLimit reports that the hub's subscription cap is reached;
// the serving layer maps it to 429.
var ErrSubscriptionLimit = errors.New("ivm: subscription limit reached")

// ErrClosed reports that the hub or the subscription is closed.
var ErrClosed = errors.New("ivm: closed")

// Defaults for Config's zero values.
const (
	DefaultMaxSubscriptions   = 1024
	DefaultSubscriptionBuffer = 64
)

// Config configures a Hub.
type Config struct {
	// Store is the live document store to watch. Required.
	Store *store.Store
	// Compile translates a query into an executable program plus a stable
	// plan key; the engine supplies its plan-cached translation here.
	// Queries with equal keys are guaranteed to have identical programs, so
	// the hub maintains one shared view for all of them (an empty key falls
	// back to the query string — no sharing beyond identical text).
	// Required.
	Compile func(ctx context.Context, query string) (*ra.Program, string, error)
	// MaxSubscriptions caps concurrently active subscriptions (admission
	// control). 0 selects DefaultMaxSubscriptions; negative is unlimited.
	MaxSubscriptions int
	// SubscriptionBuffer bounds each subscription's event buffer; overflow
	// degrades the subscription to a snapshot resync. 0 selects
	// DefaultSubscriptionBuffer.
	SubscriptionBuffer int
}

// EventType discriminates watch events.
type EventType string

const (
	// EventSnapshot carries the full answer set: the first event of every
	// subscription, and the recovery event after a buffer overflow.
	EventSnapshot EventType = "snapshot"
	// EventDelta carries one epoch's answer change.
	EventDelta EventType = "delta"
)

// Event is one message on a subscription: the initial (or resync) snapshot,
// or one epoch's answer delta. Epoch identifies the store version the
// payload corresponds to, so clients can correlate events with update acks.
type Event struct {
	Type  EventType `json:"type"`
	Epoch uint64    `json:"epoch"`
	// IDs is the full answer (snapshots only).
	IDs []int `json:"ids,omitempty"`
	// Added and Removed are the answer changes (deltas only).
	Added   []int `json:"added,omitempty"`
	Removed []int `json:"removed,omitempty"`
	// Resync marks a snapshot forced by buffer overflow: events between the
	// previous one and this snapshot were dropped.
	Resync bool `json:"resync,omitempty"`
}

// view is one standing query plan: its maintained state and its
// subscribers. Views are keyed by plan key, so queries that translate to the
// same program — however their text differs — share one materialization and
// one maintenance pass per epoch; query records the first registered text,
// for diagnostics.
type view struct {
	key   string
	query string
	vs    *rdb.ViewState
	epoch uint64
	subs  map[*Subscription]struct{}
}

// Subscription is one client's ordered event stream over a standing view.
// Receive with Next; release with Close.
type Subscription struct {
	hub   *Hub
	view  *view
	query string

	// Guarded by hub.mu.
	buf    []Event
	lagged bool
	closed bool

	notify chan struct{} // cap 1; poked after every buffer change
}

// Hub owns the standing views of one store: it consumes the store's
// transaction deltas in epoch order on a single maintainer goroutine,
// advances every view, and fans answer deltas out to subscribers. Safe for
// concurrent use.
type Hub struct {
	st      *store.Store
	compile func(ctx context.Context, query string) (*ra.Program, string, error)
	maxSubs int
	bufSize int

	mu     sync.Mutex
	cond   *sync.Cond // wakes the maintainer: queue non-empty or closing
	queue  []queued
	views  map[string]*view // by plan key
	nSubs  int
	closed bool

	done chan struct{}

	deltasPublished  atomic.Int64
	sharedPlans      atomic.Int64
	resyncs          atomic.Int64
	maintained       atomic.Int64
	reruns           atomic.Int64
	maintainedTuples atomic.Int64
	rerunTuples      atomic.Int64
	rerunsBy         obs.RerunReasons // guarded by mu
	prop             *obs.Histogram
}

type queued struct {
	td store.TxnDelta
	at time.Time
	bd rdb.BaseDelta // of an insert, built once by run for every view
}

// NewHub attaches a hub to the store's update hook and starts the
// maintainer. The hub takes over the store's SetOnApply slot; Close releases
// it.
func NewHub(cfg Config) (*Hub, error) {
	if cfg.Store == nil {
		return nil, errors.New("ivm: Config.Store is required")
	}
	if cfg.Compile == nil {
		return nil, errors.New("ivm: Config.Compile is required")
	}
	h := &Hub{
		st:      cfg.Store,
		compile: cfg.Compile,
		maxSubs: cfg.MaxSubscriptions,
		bufSize: cfg.SubscriptionBuffer,
		views:   map[string]*view{},
		done:    make(chan struct{}),
		prop:    obs.NewHistogram(nil),
	}
	if h.maxSubs == 0 {
		h.maxSubs = DefaultMaxSubscriptions
	}
	if h.bufSize <= 0 {
		h.bufSize = DefaultSubscriptionBuffer
	}
	h.cond = sync.NewCond(&h.mu)
	cfg.Store.SetOnApply(h.enqueue)
	go h.run()
	return h, nil
}

// enqueue is the store hook: called under the store's writer lock, so it
// only appends and signals — all maintenance happens on the hub goroutine.
func (h *Hub) enqueue(td store.TxnDelta) {
	at := time.Now()
	h.mu.Lock()
	if !h.closed {
		h.queue = append(h.queue, queued{td: td, at: at})
		h.cond.Signal()
	}
	h.mu.Unlock()
}

// run is the maintainer loop: one goroutine, epoch order, exactly once.
func (h *Hub) run() {
	defer close(h.done)
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		for !h.closed && len(h.queue) == 0 {
			h.cond.Wait()
		}
		if h.closed {
			return
		}
		q := h.queue[0]
		h.queue[0] = queued{}
		h.queue = h.queue[1:]
		if len(h.queue) == 0 {
			h.queue = nil // let a drained backlog be collected
		}
		if q.td.Op == store.OpInsert {
			q.bd = BaseDeltaOf(q.td)
		}
		for _, v := range h.views {
			h.maintainView(v, q)
		}
	}
}

// maintainView advances one view by one transaction delta, under h.mu.
func (h *Hub) maintainView(v *view, q queued) {
	td := q.td
	if td.Epoch <= v.epoch {
		return // view was built from an epoch at or past this update
	}
	dT, fT := v.vs.DeltaStats.TuplesOut, v.vs.FullStats.TuplesOut
	var added, removed []int
	var err error
	var why *int64 // the reason counter, when the update cannot be a delta
	switch {
	case td.Epoch != v.epoch+1:
		why = &h.rerunsBy.EpochGap
	case td.Op == store.OpUpdateText && v.vs.TextImmune():
		err = v.vs.ApplyText(td.DB, td.Root)
	case td.Op == store.OpUpdateText:
		why = &h.rerunsBy.Text
	case !v.vs.Insertable():
		why = &h.rerunsBy.NonMonotone
	case td.Op == store.OpInsert:
		added, err = v.vs.ApplyInsert(td.DB, q.bd)
	case td.Op == store.OpDelete:
		removed, err = v.vs.ApplyDelete(td.DB, td.Prev, td.Root, td.Deleted)
	default:
		err = rdb.ErrNonIncremental // an operation this matrix does not know
	}
	if err != nil {
		why = &h.rerunsBy.Error
	}
	if why == nil {
		h.maintained.Add(1)
		h.maintainedTuples.Add(int64(v.vs.DeltaStats.TuplesOut - dT))
	} else {
		// Full re-evaluation with an answer diff keeps the stream exact.
		added, removed, err = v.vs.Rebuild(td.DB)
		if err != nil {
			// The program cannot run on this epoch at all. The view is
			// unrecoverable; terminate its subscribers.
			h.dropView(v, err)
			return
		}
		h.reruns.Add(1)
		*why++
		h.rerunTuples.Add(int64(v.vs.FullStats.TuplesOut - fT))
	}
	v.epoch = td.Epoch
	ev := Event{Type: EventDelta, Epoch: td.Epoch, Added: added, Removed: removed}
	for s := range v.subs {
		s.push(ev, h.bufSize, &h.resyncs)
	}
	h.deltasPublished.Add(1)
	h.prop.Observe(time.Since(q.at))
}

// push appends an event to the subscription's bounded buffer; on overflow
// the buffer is dropped and the subscription degrades to a snapshot resync.
// Caller holds hub.mu.
func (s *Subscription) push(ev Event, bufSize int, resyncs *atomic.Int64) {
	if s.closed {
		return
	}
	if s.lagged {
		return // already pending a resync; intermediate deltas are moot
	}
	if len(s.buf) >= bufSize {
		s.buf = s.buf[:0]
		s.lagged = true
		resyncs.Add(1)
	} else {
		s.buf = append(s.buf, ev)
	}
	s.poke()
}

func (s *Subscription) poke() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// dropView terminates a view whose program can no longer be evaluated.
// Caller holds hub.mu.
func (h *Hub) dropView(v *view, err error) {
	for s := range v.subs {
		s.closed = true
		h.nSubs--
		s.poke()
	}
	v.subs = map[*Subscription]struct{}{}
	delete(h.views, v.key)
}

// BaseDeltaOf converts a store transaction delta into the rdb exchange
// form: the inserted IDs, grouped by the stored relation their element type
// names in the epoch's catalog. Exported for benchmarks and tests that drive
// rdb.ViewState maintenance directly.
func BaseDeltaOf(td store.TxnDelta) rdb.BaseDelta {
	bd := rdb.BaseDelta{Rows: make(map[string][]rdb.DeltaEdge, 4), NewIDs: td.Inserted}
	for _, id := range td.Inserted {
		label, _ := td.DB.Label(id)
		rel := shred.RelName(label)
		bd.Rows[rel] = append(bd.Rows[rel], rdb.DeltaEdge{T: id})
	}
	return bd
}

// Watch registers a standing query and returns its subscription. The first
// event is a snapshot of the answer on the subscription's starting epoch;
// every later event is one epoch's delta, in order. Subscriptions whose
// queries translate to the same plan share one maintained view (and so one
// materialization and one maintenance pass per epoch), however their query
// text differs.
func (h *Hub) Watch(ctx context.Context, query string) (*Subscription, error) {
	// Compile outside hub.mu: it is plan-cached upstream but may translate
	// on first sight, and the key decides which view (if any) we join.
	prog, key, err := h.compile(ctx, query)
	if err != nil {
		return nil, err
	}
	if key == "" {
		key = query
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if h.maxSubs > 0 && h.nSubs >= h.maxSubs {
		return nil, ErrSubscriptionLimit
	}
	v := h.views[key]
	if v != nil {
		h.sharedPlans.Add(1)
	} else {
		ep := h.st.View()
		vs, err := rdb.BuildViewState(ep.DB, prog)
		if err != nil {
			return nil, err
		}
		// Updates applied between reading the epoch and this registration
		// are handled by the epoch-gap fallback in maintainView.
		v = &view{key: key, query: query, vs: vs, epoch: ep.Seq, subs: map[*Subscription]struct{}{}}
		h.views[key] = v
	}
	s := &Subscription{
		hub:    h,
		view:   v,
		query:  query,
		notify: make(chan struct{}, 1),
	}
	s.buf = append(s.buf, Event{Type: EventSnapshot, Epoch: v.epoch, IDs: v.vs.AnswerIDs()})
	v.subs[s] = struct{}{}
	h.nSubs++
	return s, nil
}

// Query returns the subscription's query string.
func (s *Subscription) Query() string { return s.query }

// Next blocks until the next event, the context's cancellation, or the
// subscription's termination (ErrClosed). After an overflow the next event
// is a fresh snapshot with Resync set.
func (s *Subscription) Next(ctx context.Context) (Event, error) {
	h := s.hub
	for {
		h.mu.Lock()
		if s.lagged {
			s.lagged = false
			s.buf = s.buf[:0]
			ev := Event{Type: EventSnapshot, Epoch: s.view.epoch, IDs: s.view.vs.AnswerIDs(), Resync: true}
			h.mu.Unlock()
			return ev, nil
		}
		if len(s.buf) > 0 {
			ev := s.buf[0]
			s.buf = append(s.buf[:0], s.buf[1:]...)
			h.mu.Unlock()
			return ev, nil
		}
		if s.closed {
			h.mu.Unlock()
			return Event{}, ErrClosed
		}
		h.mu.Unlock()
		select {
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-s.notify:
		}
	}
}

// Close releases the subscription. Idempotent.
func (s *Subscription) Close() {
	h := s.hub
	h.mu.Lock()
	if !s.closed {
		s.closed = true
		delete(s.view.subs, s)
		h.nSubs--
		if len(s.view.subs) == 0 {
			delete(h.views, s.view.key)
		}
	}
	h.mu.Unlock()
	s.poke()
}

// Stats snapshots the hub's counters for the metrics endpoint.
func (h *Hub) Stats() obs.WatchStats {
	h.mu.Lock()
	subs, views, rerunsBy := h.nSubs, len(h.views), h.rerunsBy
	h.mu.Unlock()
	return obs.WatchStats{
		ActiveSubscriptions: int64(subs),
		ActiveViews:         int64(views),
		DeltasPublished:     h.deltasPublished.Load(),
		SharedPlans:         h.sharedPlans.Load(),
		Resyncs:             h.resyncs.Load(),
		Maintained:          h.maintained.Load(),
		Reruns:              h.reruns.Load(),
		RerunsByReason:      rerunsBy,
		MaintainedTuples:    h.maintainedTuples.Load(),
		RerunTuples:         h.rerunTuples.Load(),
		Propagation:         h.prop.Snapshot(),
	}
}

// Close detaches the hub from the store, stops the maintainer and
// terminates every subscription (their Next returns ErrClosed once
// drained). Idempotent; safe while subscribers are active — the serving
// layer calls this during graceful drain.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		<-h.done
		return
	}
	h.closed = true
	for _, v := range h.views {
		for s := range v.subs {
			s.closed = true
			s.poke()
		}
	}
	h.views = map[string]*view{}
	h.nSubs = 0
	h.cond.Broadcast()
	h.mu.Unlock()
	h.st.SetOnApply(nil)
	<-h.done
}
