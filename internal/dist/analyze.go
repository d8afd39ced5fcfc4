package dist

import (
	"slices"
	"strings"

	"repro/internal/model"
)

// RoundSummary aggregates one round's events across all agents: how much
// traffic the round generated, how many stall chirps re-announced it (the
// loss/repair proxy — agents chirp a round exactly when its frames failed
// to make progress), and the wall-time window it was live.
type RoundSummary struct {
	Round int
	// Sends counts announces/reports sent for this round; Recvs the
	// frames received tagged with it (absorbed or rejected); Resends the
	// stall chirps re-announcing it.
	Sends   int
	Recvs   int
	Resends int
	// FirstNanos and LastNanos bound the round's event window.
	FirstNanos int64
	LastNanos  int64
}

// AgentSummary ranks one flow/node agent's progress against its
// communicating component's frontier (the agents it exchanges messages
// with, discovered from the log's recv edges — round numbers are not
// causally comparable across disconnected subgraphs).
type AgentSummary struct {
	Agent string
	// FirstRound and LastRound are the agent's observed round-advance
	// range (FirstRound > 1 means its ring wrapped).
	FirstRound int
	LastRound  int
	// Chirps counts the agent's stall re-announces.
	Chirps int
	// MaxLag is the worst observed frontier-minus-agent round gap.
	MaxLag int
	// BehindNanos integrates max(0, lag-1) over the agent's observed
	// window: time spent more than one round behind the frontier (one
	// round behind is normal pipeline skew). The straggler score.
	BehindNanos int64
}

// Analysis is the merged cross-agent view of one event log.
type Analysis struct {
	// MaxRound is the highest round any agent completed; SpanNanos the
	// full event window.
	MaxRound  int
	SpanNanos int64
	// Rounds is the per-round timeline in round order.
	Rounds []RoundSummary
	// Agents is every flow/node agent, most-straggling first
	// (BehindNanos descending, chirps as tiebreak).
	Agents []AgentSummary
	// StalenessDist histograms the observed input lag at each send: how
	// stale the inputs actually used were, in rounds (the effective
	// staleness distribution, bounded by Config.Staleness).
	StalenessDist map[int]int
	// TotalResends and Stalls aggregate chirps and stall-detector trips.
	TotalResends int
	Stalls       int
}

// frontierStep is one increase of a component's completed-round maximum.
type frontierStep struct {
	nanos int64
	round int
}

// unionFind groups agents into communicating components from the recv
// edges in the log. Round numbers are causally comparable only between
// agents that exchange messages; judging an agent against a global
// frontier would let an unrelated fast subgraph mislabel a whole slow
// component as stragglers.
type unionFind struct {
	parent map[string]string
}

func newUnionFind() *unionFind { return &unionFind{parent: make(map[string]string)} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		u.parent[x] = x
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// agentTrack is one agent's raw progress timeline.
type agentTrack struct {
	firstNanos int64
	lastNanos  int64
	advances   []frontierStep // (nanos, completed round), ascending
	chirps     int
}

// Analyze merges a flight-recorder event log into the per-round timeline
// and straggler ranking. Rings that wrapped are handled conservatively:
// each agent is only judged over the window its events cover.
func Analyze(recs []Event) *Analysis {
	a := &Analysis{StalenessDist: make(map[int]int)}
	if len(recs) == 0 {
		return a
	}
	sorted := make([]Event, len(recs))
	copy(sorted, recs)
	slices.SortFunc(sorted, func(x, y Event) int {
		if x.Nanos != y.Nanos {
			if x.Nanos < y.Nanos {
				return -1
			}
			return 1
		}
		return strings.Compare(x.Agent, y.Agent)
	})

	rounds := make(map[int]*RoundSummary)
	touchRound := func(r int, nanos int64) *RoundSummary {
		rs, ok := rounds[r]
		if !ok {
			rs = &RoundSummary{Round: r, FirstNanos: nanos, LastNanos: nanos}
			rounds[r] = rs
		}
		if nanos < rs.FirstNanos {
			rs.FirstNanos = nanos
		}
		if nanos > rs.LastNanos {
			rs.LastNanos = nanos
		}
		return rs
	}

	tracks := make(map[string]*agentTrack)
	isAgent := func(name string) bool {
		return strings.HasPrefix(name, "flow/") || strings.HasPrefix(name, "node/")
	}
	// peerOf names the sender of a recv event: flows hear from nodes
	// (A = node id), nodes hear from flows (A = flow id).
	peerOf := func(rec Event) string {
		if strings.HasPrefix(rec.Agent, "flow/") {
			return nodeName(model.NodeID(rec.A))
		}
		return flowName(model.FlowID(rec.A))
	}
	comps := newUnionFind()
	endNanos := sorted[len(sorted)-1].Nanos

	for _, rec := range sorted {
		if isAgent(rec.Agent) {
			tr, ok := tracks[rec.Agent]
			if !ok {
				tr = &agentTrack{firstNanos: rec.Nanos}
				tracks[rec.Agent] = tr
			}
			tr.lastNanos = rec.Nanos
		}
		switch rec.Type {
		case EvSend:
			rs := touchRound(rec.Round, rec.Nanos)
			rs.Sends++
			a.StalenessDist[int(rec.A)]++
		case EvRecv, EvAbsorb:
			// recv and absorb are mutually exclusive per frame; both
			// count as a received frame for the round.
			touchRound(rec.Round, rec.Nanos).Recvs++
			if isAgent(rec.Agent) {
				comps.union(rec.Agent, peerOf(rec))
			}
		case EvResend:
			rs := touchRound(rec.Round, rec.Nanos)
			rs.Resends++
			a.TotalResends++
			if tr := tracks[rec.Agent]; tr != nil {
				tr.chirps++
			}
		case EvRound:
			touchRound(rec.Round, rec.Nanos)
			if rec.Round > a.MaxRound {
				a.MaxRound = rec.Round
			}
			if tr := tracks[rec.Agent]; tr != nil {
				tr.advances = append(tr.advances, frontierStep{nanos: rec.Nanos, round: rec.Round})
			}
		case EvStall:
			a.Stalls++
		}
	}
	a.SpanNanos = endNanos - sorted[0].Nanos

	// Per-component frontiers: the running maximum of completed rounds
	// within each communicating component, as compact step functions (at
	// most MaxRound entries each).
	frontiers := make(map[string][]frontierStep)
	maxSeen := make(map[string]int)
	for _, rec := range sorted {
		if rec.Type != EvRound || !isAgent(rec.Agent) {
			continue
		}
		root := comps.find(rec.Agent)
		if rec.Round > maxSeen[root] {
			maxSeen[root] = rec.Round
			frontiers[root] = append(frontiers[root], frontierStep{nanos: rec.Nanos, round: rec.Round})
		}
	}

	for name, tr := range tracks {
		a.Agents = append(a.Agents, summarizeAgent(name, tr, frontiers[comps.find(name)], endNanos))
	}
	slices.SortFunc(a.Agents, func(x, y AgentSummary) int {
		if x.BehindNanos != y.BehindNanos {
			if x.BehindNanos > y.BehindNanos {
				return -1
			}
			return 1
		}
		if x.Chirps != y.Chirps {
			return y.Chirps - x.Chirps
		}
		return strings.Compare(x.Agent, y.Agent)
	})

	for _, rs := range rounds {
		a.Rounds = append(a.Rounds, *rs)
	}
	slices.SortFunc(a.Rounds, func(x, y RoundSummary) int { return x.Round - y.Round })
	return a
}

// summarizeAgent integrates one agent's lag behind its component frontier
// over its observed window. Before an agent's first recorded advance its
// completed round is taken as (first advance - 1): exact when the ring
// covers the whole run, conservative when it wrapped. An agent whose ring
// holds no advances at all cannot be judged and scores zero rather than
// being mistaken for a maximal straggler.
func summarizeAgent(name string, tr *agentTrack, frontier []frontierStep, endNanos int64) AgentSummary {
	s := AgentSummary{Agent: name, Chirps: tr.chirps}
	if len(tr.advances) == 0 {
		return s
	}
	s.FirstRound = tr.advances[0].round
	s.LastRound = tr.advances[len(tr.advances)-1].round

	completed := s.FirstRound - 1
	if completed < 0 {
		completed = 0
	}
	fi := 0 // next frontier step
	front := 0
	ai := 0
	t := tr.firstNanos
	// Catch the frontier up to the start of the agent's window.
	for fi < len(frontier) && frontier[fi].nanos <= t {
		front = frontier[fi].round
		fi++
	}
	for t < endNanos {
		// Next state change: a frontier step or this agent's advance.
		next := endNanos
		if fi < len(frontier) && frontier[fi].nanos < next {
			next = frontier[fi].nanos
		}
		if ai < len(tr.advances) && tr.advances[ai].nanos < next {
			next = tr.advances[ai].nanos
		}
		lag := front - completed
		if lag > s.MaxLag {
			s.MaxLag = lag
		}
		if lag > 1 {
			s.BehindNanos += int64(lag-1) * (next - t)
		}
		t = next
		for fi < len(frontier) && frontier[fi].nanos <= t {
			front = frontier[fi].round
			fi++
		}
		for ai < len(tr.advances) && tr.advances[ai].nanos <= t {
			completed = tr.advances[ai].round
			ai++
		}
	}
	return s
}
