package xpath2sql

import (
	"context"

	"xpath2sql/internal/ivm"
	"xpath2sql/internal/ra"
	"xpath2sql/internal/store"
)

// Continuous queries: a WatchHub registers translated XPath queries as
// materialized standing views over a live Store and streams per-epoch answer
// deltas to subscribers. Translation goes through the engine's plan cache;
// maintenance runs incrementally when the plan admits it (see
// internal/ivm).

// WatchHub maintains standing views over a live store and fans out answer
// deltas to subscriptions. Build one with Engine.NewWatchHub.
type WatchHub = ivm.Hub

// WatchConfig tunes a WatchHub's admission control and buffering.
type WatchConfig struct {
	// MaxSubscriptions caps concurrently active subscriptions. 0 selects
	// the ivm default; negative is unlimited.
	MaxSubscriptions int
	// SubscriptionBuffer bounds each subscription's pending-event buffer;
	// a subscriber that falls further behind is degraded to a snapshot
	// resync. 0 selects the ivm default.
	SubscriptionBuffer int
}

// WatchEvent is one message on a watch subscription: an initial (or resync)
// snapshot of the full answer, or one epoch's (added, removed) delta.
type WatchEvent = ivm.Event

// WatchSubscription is one client's ordered event stream over a standing
// query. Receive with Next; release with Close.
type WatchSubscription = ivm.Subscription

// Watch event types.
const (
	WatchSnapshot = ivm.EventSnapshot
	WatchDelta    = ivm.EventDelta
)

// ErrSubscriptionLimit reports that a WatchHub's subscription cap is
// reached.
var ErrSubscriptionLimit = ivm.ErrSubscriptionLimit

// NewWatchHub attaches a continuous-query hub to the store: registered
// queries are translated through this engine (sharing its plan cache and
// options) and maintained as standing views across the store's epochs. The
// hub takes over the store's update hook; call Close to release it. The
// store must serve the same DTD the engine was built with.
func (e *Engine) NewWatchHub(st *store.Store, cfg WatchConfig) (*WatchHub, error) {
	return ivm.NewHub(ivm.Config{
		Store: st,
		Compile: func(ctx context.Context, query string) (*ra.Program, string, error) {
			q, err := ParseQuery(query)
			if err != nil {
				return nil, "", err
			}
			res, err := e.translate(ctx, q)
			if err != nil {
				return nil, "", err
			}
			// The plan-cache key doubles as the view-sharing key: queries
			// that canonicalize to the same plan share one standing view.
			return res.Program, e.planKey(q), nil
		},
		MaxSubscriptions:   cfg.MaxSubscriptions,
		SubscriptionBuffer: cfg.SubscriptionBuffer,
	})
}
