package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"obddopt"
	"obddopt/internal/cache"
	"obddopt/internal/truthtable"
)

// Input streams: each draws from its own generator seeded by (seed,
// stream), so the timed inputs do not depend on how many warm-up or
// set-up inputs were drawn before them.
const (
	streamTables = iota + 1
	streamWarm
	streamTimed
)

func streamRNG(seed int64, stream int) *rand.Rand {
	// splitmix64 of (seed, stream), so that nearby seeds and streams
	// give unrelated generators.
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64((z ^ (z >> 31)) >> 1)))
}

// fresh draws tables from rng until one is not in seen, and records it.
// seen holds a 64-bit digest per table rather than the table.
func fresh(rng *rand.Rand, n int, seen map[uint64]bool, draw func(int, *rand.Rand) *obddopt.Table) *obddopt.Table {
	for {
		tt := draw(n, rng)
		// FNV-1a over the variable count and the function's cells.
		h := (14695981039346656037 ^ uint64(n)) * 1099511628211
		for idx := uint64(0); idx < tt.Size(); idx++ {
			if tt.Bit(idx) {
				h ^= idx + 1
			}
			h *= 1099511628211
		}
		if !seen[h] {
			seen[h] = true
			return tt
		}
	}
}

// defaultParams are the default-parameter request of a client (portfolio
// solver, OBDD rule, server limits), tagged with the op's request ID.
func defaultParams(rs *reqSpan) *obddopt.ClientParams {
	return &obddopt.ClientParams{RequestID: rs.reqID()}
}

// timeCall runs call inside the op's "client.call" span and returns its
// duration.
func timeCall(rs *reqSpan, call func()) time.Duration {
	sp := rs.start("client.call")
	start := time.Now()
	call()
	lat := time.Since(start)
	sp.finish()
	return lat
}

// replayRef solves the op's function with the serial DP (the checks'
// reference) and adds its counters.
func replayRef(ctx context.Context, rs *reqSpan, r *refs, tt *obddopt.Table, rule obddopt.Rule, c *counts) error {
	var ref *reference
	var err error
	rs.time("check.reference", func() { ref, err = r.get(ctx, tt, rule) })
	if err != nil {
		return err
	}
	c.addRef(ref)
	return nil
}

// replayParse repeats the literal's round trip: the client's Hex and
// the server's ParseHex.
func replayParse(rs *reqSpan, tt *obddopt.Table) (*obddopt.Table, error) {
	var hex string
	rs.time("truthtable.hex", func() { hex = tt.Hex() })
	var parsed *obddopt.Table
	var err error
	rs.time("truthtable.parse", func() { parsed, err = obddopt.ParseTableHex(hex) })
	return parsed, err
}

// replayLookup repeats the server's cache lookup for one class: the
// table literal, the digest, and the probe of a benchmark-owned cache.
func replayLookup(rs *reqSpan, bc *cache.Cache, tt *obddopt.Table, rule obddopt.Rule, class string) (key string, hit bool) {
	var hex string
	rs.time("truthtable.hex", func() { hex = tt.Hex() })
	rs.time("cache.key", func() { key = cache.Key(hex, rule.String(), class) })
	rs.time("cache.get", func() { _, hit = bc.Get(key) })
	return key, hit
}

// replayArtifact builds, encodes, decodes and verifies the artifact of
// tt under res's ordering.
func replayArtifact(rs *reqSpan, tt *obddopt.Table, res *obddopt.Result, c *counts) error {
	var (
		a, back *obddopt.Artifact
		enc     []byte
		err     error
	)
	rs.time("artifact.build", func() { a, err = obddopt.BuildArtifact(tt, res.Ordering) })
	if err != nil {
		return err
	}
	rs.time("artifact.encode", func() { enc = a.Encode() })
	rs.time("artifact.decode", func() { back, err = obddopt.DecodeArtifact(enc) })
	if err != nil {
		return err
	}
	rs.time("artifact.verify", func() { err = obddopt.VerifyArtifact(back, tt) })
	c.artifactBytes += len(enc)
	c.artifacts++
	return err
}

func sameResult(a, b *obddopt.Result) bool {
	return a != nil && b != nil && a.MinCost == b.MinCost && a.Size == b.Size &&
		a.Ordering.Equal(b.Ordering) && slices.Equal(a.Profile, b.Profile)
}

// ---- serve_hit: repeat queries answered from the cache ----

const (
	hitVars    = 12
	hitTables  = 32 // the working set the requests cycle over
	hitWarmOps = 64
)

type hitInst struct {
	served
	tts    []*obddopt.Table
	copies []*obddopt.Result // set-up's answers, checked after the run
	raws   [][]byte          // set-up's artifact bytes
	// same records, per op, whether the response equalled set-up's copy.
	// The comparison runs as each response arrives (outside the latency
	// timer) so that the run keeps one bool per op, not tens of
	// thousands of responses that would inflate peak_rss_mb and the
	// GC's work; the costly checks of the copies run after the run.
	same []bool
	bc   *cache.Cache // the replay's cache, holding the same entries
	refs refs
}

func setupHit(ctx context.Context, e *env) (instance, error) {
	rng := streamRNG(e.seed, streamTables)
	h := &hitInst{bc: cache.New(0)}
	for j := 0; j < hitTables; j++ {
		h.tts = append(h.tts, truthtable.Random(hitVars, rng))
	}
	svc, err := startService(ctx, obddopt.ServerConfig{}, e)
	if err != nil {
		return nil, err
	}
	h.svc = svc
	// Set-up solves each table once with the parallel solver; the cache
	// key ignores the solver name, so default-parameter requests hit.
	warm := &obddopt.ClientParams{Solver: "parallel"}
	for j, tt := range h.tts {
		res, err := svc.client.Solve(ctx, tt, warm)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("warming table %d: %w", j, err)
		}
		raw, err := svc.client.SolveArtifactRaw(ctx, tt, warm)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("warming artifact %d: %w", j, err)
		}
		h.copies = append(h.copies, res)
		h.raws = append(h.raws, raw)
		hex := tt.Hex()
		h.bc.Put(cache.Key(hex, obddopt.OBDD.String(), cache.ClassExact), res, 1)
		h.bc.Put(cache.Key(hex, obddopt.OBDD.String(), cache.ClassArtifact), raw, 1)
	}
	for i := 0; i < hitWarmOps; i++ {
		if _, _, err := h.do(ctx, i, nil); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return h, nil
}

// rawOp reports whether op i asks for the raw artifact: one op in four,
// and each table once in every four passes over the working set.
func rawOp(i int) bool { return (i+i/hitTables)%4 == 3 }

// do sends op i's request and reports whether the response equals
// set-up's copy.
func (h *hitInst) do(ctx context.Context, i int, rs *reqSpan) (same bool, lat time.Duration, err error) {
	j := i % hitTables
	var (
		res *obddopt.Result
		raw []byte
	)
	lat = timeCall(rs, func() {
		if rawOp(i) {
			raw, err = h.svc.client.SolveArtifactRaw(ctx, h.tts[j], defaultParams(rs))
		} else {
			res, err = h.svc.client.Solve(ctx, h.tts[j], defaultParams(rs))
		}
	})
	if rawOp(i) {
		return err == nil && bytes.Equal(raw, h.raws[j]), lat, err
	}
	return err == nil && sameResult(res, h.copies[j]), lat, err
}

func (h *hitInst) op(ctx context.Context, i int, rs *reqSpan) (time.Duration, error) {
	same, lat, err := h.do(ctx, i, rs)
	h.same = append(h.same, same)
	return lat, err
}

func (h *hitInst) replay(ctx context.Context, i int, rs *reqSpan, c *counts) error {
	tt, err := replayParse(rs, h.tts[i%hitTables])
	if err != nil {
		return err
	}
	classes := []string{cache.ClassExact}
	if rawOp(i) {
		classes = append(classes, cache.ClassArtifact)
	}
	for _, class := range classes {
		if _, hit := replayLookup(rs, h.bc, tt, obddopt.OBDD, class); !hit {
			return fmt.Errorf("the replay cache lacks a set-up %s entry", class)
		}
	}
	return replayRef(ctx, rs, &h.refs, h.tts[i%hitTables], obddopt.OBDD, c)
}

func (h *hitInst) check(ctx context.Context, ops int) int {
	copyOK := make([]bool, hitTables)
	forEach(hitTables, func(j int) bool {
		a := answerOf(h.copies[j], hitVars)
		ref, err := h.refs.get(ctx, h.tts[j], obddopt.OBDD)
		if err == nil {
			err = checkAnswer(h.tts[j], obddopt.OBDD, a, ref)
		}
		if err == nil {
			err = checkArtifact(h.raws[j], h.tts[j], a)
		}
		copyOK[j] = err == nil
		return true
	})
	failed := 0
	for i, same := range h.same[:ops] {
		if !same || !copyOK[i%hitTables] {
			failed++
		}
	}
	return failed
}

// ---- serve_miss: fresh functions and cache writes ----

const (
	missMinVars, missMaxVars = 5, 10
	missWarmOps              = 200
	// missCacheBytes is small enough that the warm-up fills the cache and
	// every timed insert evicts.
	missCacheBytes = 64 << 10
)

type missInput struct {
	tt       *obddopt.Table
	rule     obddopt.Rule
	artifact bool // ?include=bdd
}

// missGen draws never-seen functions. The traffic mix is stratified, not
// sampled, so that it is the same in every run: each block of 96 draws
// has every n in [5, 10] sixteen times, the ZDD rule on one draw in four
// and an artifact on one OBDD draw in four, evenly spread over n.
type missGen struct {
	rng   *rand.Rand
	seen  map[uint64]bool
	draws int
}

func (g *missGen) next() missInput {
	k := g.draws
	g.draws++
	n := missMinVars + k%(missMaxVars-missMinVars+1)
	in := missInput{tt: fresh(g.rng, n, g.seen, truthtable.Random), rule: obddopt.OBDD}
	switch mix := k / (missMaxVars - missMinVars + 1) % 16; {
	case mix%4 == 0:
		in.rule = obddopt.ZDD
	case mix%4 == 2 && mix != 14:
		in.artifact = true
	}
	return in
}

type missInst struct {
	served
	gen    *missGen
	inputs []missInput
	outs   []missOut
	bc     *cache.Cache
	events *eventSink
	refs   refs
}

// missOut is what the checks need of one response: the answer and, for
// an artifact request, the artifact's encoding.
type missOut struct {
	ans answer
	enc []byte
	err error
}

func setupMiss(ctx context.Context, e *env) (instance, error) {
	seen := make(map[uint64]bool)
	warm := &missGen{rng: streamRNG(e.seed, streamWarm), seen: seen}
	m := &missInst{
		gen:    &missGen{rng: streamRNG(e.seed, streamTimed), seen: seen},
		bc:     cache.New(missCacheBytes),
		events: e.events,
	}
	warmInputs := make([]missInput, missWarmOps)
	for i := range warmInputs {
		warmInputs[i] = warm.next()
	}
	svc, err := startService(ctx, obddopt.ServerConfig{CacheBytes: missCacheBytes}, e)
	if err != nil {
		return nil, err
	}
	m.svc = svc
	for _, in := range warmInputs {
		if out, _ := m.do(ctx, in, nil); out.err != nil {
			m.close()
			return nil, fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return m, nil
}

func (m *missInst) do(ctx context.Context, in missInput, rs *reqSpan) (missOut, time.Duration) {
	var (
		res *obddopt.Result
		art *obddopt.Artifact
		err error
	)
	p := defaultParams(rs)
	p.Rule = in.rule
	lat := timeCall(rs, func() {
		if in.artifact {
			res, art, err = m.svc.client.SolveArtifact(ctx, in.tt, p)
		} else {
			res, err = m.svc.client.Solve(ctx, in.tt, p)
		}
	})
	out := missOut{ans: answerOf(res, in.tt.NumVars()), err: err}
	if art != nil {
		out.enc = art.Encode()
	}
	return out, lat
}

func (m *missInst) op(ctx context.Context, i int, rs *reqSpan) (time.Duration, error) {
	if i == len(m.inputs) {
		m.inputs = append(m.inputs, m.gen.next())
	}
	out, lat := m.do(ctx, m.inputs[i], rs)
	m.outs = append(m.outs, out)
	return lat, out.err
}

func (m *missInst) replay(ctx context.Context, i int, rs *reqSpan, c *counts) error {
	in := m.inputs[i]
	tt, err := replayParse(rs, in.tt)
	if err != nil {
		return err
	}
	key, _ := replayLookup(rs, m.bc, tt, in.rule, cache.ClassExact)
	var res *obddopt.Result
	rs.time("core.solve", func() {
		res, err = obddopt.Solve(ctx, tt, obddopt.WithRule(in.rule), obddopt.WithTrace(m.events))
	})
	if err != nil {
		return err
	}
	m.bc.Put(key, res, 1)
	if in.artifact {
		replayLookup(rs, m.bc, tt, in.rule, cache.ClassArtifact)
		if err := replayArtifact(rs, tt, res, c); err != nil {
			return err
		}
	}
	return replayRef(ctx, rs, &m.refs, in.tt, in.rule, c)
}

func (m *missInst) check(ctx context.Context, ops int) int {
	return forEach(ops, func(i int) bool {
		in, out := m.inputs[i], m.outs[i]
		if out.err != nil {
			return false
		}
		ref, err := m.refs.get(ctx, in.tt, in.rule)
		if err == nil {
			err = checkAnswer(in.tt, in.rule, out.ans, ref)
		}
		if err == nil && in.artifact {
			err = checkArtifact(out.enc, in.tt, out.ans)
		}
		return err == nil
	})
}

// ---- serve_batch: co-scheduled batches ----

const (
	batchVars     = 10
	batchBases    = 2
	batchVariants = 3 // near-variants per base
	batchFlips    = 3 // bits flipped per variant
	// batchPrefixCells is how many top cells the planner's digest prefix
	// covers (16 hex digits); variants flip bits below them only, so a
	// base and its variants share the prefix.
	batchPrefixCells = 64
	batchWarmOps     = 3
)

// batchGen draws two never-seen random bases per batch and three
// never-seen near-variants of each, grouped base first.
type batchGen struct {
	rng  *rand.Rand
	seen map[uint64]bool
}

func (g *batchGen) next() []*obddopt.Table {
	var tts []*obddopt.Table
	for b := 0; b < batchBases; b++ {
		base := fresh(g.rng, batchVars, g.seen, truthtable.Random)
		tts = append(tts, base)
		variant := func(n int, rng *rand.Rand) *obddopt.Table {
			tt := base.Clone()
			for f := 0; f < batchFlips; f++ {
				idx := uint64(rng.Intn(1<<n - batchPrefixCells))
				tt.Set(idx, !tt.Bit(idx))
			}
			return tt
		}
		for v := 0; v < batchVariants; v++ {
			tts = append(tts, fresh(g.rng, batchVars, g.seen, variant))
		}
	}
	return tts
}

type batchInst struct {
	served
	gen    *batchGen
	inputs [][]*obddopt.Table
	outs   []batchOut
	bc     *cache.Cache
	events *eventSink
	refs   refs
}

// batchOut is what the checks and the replay need of one batch response.
type batchOut struct {
	items []batchItem
	err   error
}

type batchItem struct {
	ans answer
	// group numbers the item's co-scheduling group within the batch in
	// order of appearance; -1 when the item was not co-scheduled.
	group int
}

func setupBatch(ctx context.Context, e *env) (instance, error) {
	seen := make(map[uint64]bool)
	warm := &batchGen{rng: streamRNG(e.seed, streamWarm), seen: seen}
	b := &batchInst{
		gen:    &batchGen{rng: streamRNG(e.seed, streamTimed), seen: seen},
		bc:     cache.New(0),
		events: e.events,
	}
	warmInputs := make([][]*obddopt.Table, batchWarmOps)
	for i := range warmInputs {
		warmInputs[i] = warm.next()
	}
	svc, err := startService(ctx, obddopt.ServerConfig{}, e)
	if err != nil {
		return nil, err
	}
	b.svc = svc
	for _, tts := range warmInputs {
		if out, _ := b.do(ctx, tts, nil); out.err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return b, nil
}

func (b *batchInst) do(ctx context.Context, tts []*obddopt.Table, rs *reqSpan) (batchOut, time.Duration) {
	var items []obddopt.BatchResult
	var out batchOut
	p := defaultParams(rs)
	p.Coschedule = true
	lat := timeCall(rs, func() { items, out.err = b.svc.client.SolveBatch(ctx, tts, p) })
	if out.err == nil && len(items) != len(tts) {
		out.err = fmt.Errorf("%d responses to a batch of %d", len(items), len(tts))
	}
	if out.err != nil {
		return out, lat
	}
	groups := map[string]int{}
	for k, item := range items {
		bi := batchItem{group: -1}
		if item.Err == nil {
			bi.ans = answerOf(item.Result, tts[k].NumVars())
		}
		if s := item.Scheduling; s != nil && s.Coscheduled {
			g, ok := groups[s.Group]
			if !ok {
				g = len(groups)
				groups[s.Group] = g
			}
			bi.group = g
		}
		out.items = append(out.items, bi)
	}
	return out, lat
}

func (b *batchInst) op(ctx context.Context, i int, rs *reqSpan) (time.Duration, error) {
	if i == len(b.inputs) {
		b.inputs = append(b.inputs, b.gen.next())
	}
	out, lat := b.do(ctx, b.inputs[i], rs)
	b.outs = append(b.outs, out)
	return lat, out.err
}

func (b *batchInst) replay(ctx context.Context, i int, rs *reqSpan, c *counts) error {
	in, out := b.inputs[i], b.outs[i]
	tts := make([]*obddopt.Table, len(in))
	for k := range in {
		var err error
		if tts[k], err = replayParse(rs, in[k]); err != nil {
			return err
		}
	}
	// Solve each echoed co-scheduling group as one shared forest, and
	// any item the planner declined on its own, as the server did.
	var groups [][]*obddopt.Table
	for k, item := range out.items {
		c.items++
		if item.group < 0 {
			key, _ := replayLookup(rs, b.bc, tts[k], obddopt.OBDD, cache.ClassExact)
			var res *obddopt.Result
			var err error
			rs.time("core.solve", func() { res, err = obddopt.Solve(ctx, tts[k], obddopt.WithTrace(b.events)) })
			if err != nil {
				return err
			}
			b.bc.Put(key, res, 1)
			continue
		}
		c.coscheduled++
		if item.group == len(groups) {
			groups = append(groups, nil)
		}
		groups[item.group] = append(groups[item.group], tts[k])
	}
	for _, g := range groups {
		var err error
		rs.time("core.shared", func() { _, err = obddopt.SolveShared(ctx, g, obddopt.WithTrace(b.events)) })
		if err != nil {
			return err
		}
	}
	for _, tt := range in {
		if err := replayRef(ctx, rs, &b.refs, tt, obddopt.OBDD, c); err != nil {
			return err
		}
	}
	return nil
}

// check verifies every item of every batch. A co-scheduled item's
// ordering is its group's, so its cost need only be its true size under
// that ordering, which is at least its own optimum: the re-evaluation
// checks both, and no reference solve is needed. Any other item's cost
// must equal its optimum.
func (b *batchInst) check(ctx context.Context, ops int) int {
	return forEach(ops, func(i int) bool {
		in, out := b.inputs[i], b.outs[i]
		if out.err != nil {
			return false
		}
		for k, item := range out.items {
			var ref *reference
			var err error
			if item.group < 0 {
				ref, err = b.refs.get(ctx, in[k], obddopt.OBDD)
			}
			if err == nil {
				err = checkAnswer(in[k], obddopt.OBDD, item.ans, ref)
			}
			if err != nil {
				return false
			}
		}
		return true
	})
}

// ---- solve_large: the library path at large n ----

const (
	largeVars    = maxLayerK
	largeTables  = 8
	largeWarmOps = 2
)

type largeInst struct {
	tts    []*obddopt.Table
	outs   []largeOut
	events *eventSink
	refs   refs
}

type largeOut struct {
	ans answer
	err error
}

func setupLarge(ctx context.Context, e *env) (instance, error) {
	rng := streamRNG(e.seed, streamTables)
	l := &largeInst{events: e.events}
	for j := 0; j < largeTables; j++ {
		l.tts = append(l.tts, truthtable.Random(largeVars, rng))
	}
	for i := 0; i < largeWarmOps; i++ {
		if out, _ := l.do(ctx, i, nil); out.err != nil {
			return nil, fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return l, nil
}

func (l *largeInst) do(ctx context.Context, i int, rs *reqSpan) (largeOut, time.Duration) {
	var res *obddopt.Result
	var err error
	lat := timeCall(rs, func() { res, err = obddopt.Solve(ctx, l.tts[i%largeTables], obddopt.WithSolver("parallel")) })
	return largeOut{ans: answerOf(res, largeVars), err: err}, lat
}

func (l *largeInst) op(ctx context.Context, i int, rs *reqSpan) (time.Duration, error) {
	out, lat := l.do(ctx, i, rs)
	l.outs = append(l.outs, out)
	return lat, out.err
}

func (l *largeInst) replay(ctx context.Context, i int, rs *reqSpan, c *counts) error {
	tt := l.tts[i%largeTables]
	var res *obddopt.Result
	var err error
	rs.time("core.solve", func() {
		res, err = obddopt.Solve(ctx, tt, obddopt.WithSolver("parallel"), obddopt.WithTrace(l.events))
	})
	if err != nil {
		return err
	}
	if err := replayArtifact(rs, tt, res, c); err != nil {
		return err
	}
	return replayRef(ctx, rs, &l.refs, tt, obddopt.OBDD, c)
}

func (l *largeInst) check(ctx context.Context, ops int) int {
	return forEach(ops, func(i int) bool {
		tt := l.tts[i%largeTables]
		ref, err := l.refs.get(ctx, tt, obddopt.OBDD)
		return err == nil && l.outs[i].err == nil && checkAnswer(tt, obddopt.OBDD, l.outs[i].ans, ref) == nil
	})
}

func (l *largeInst) cacheStats() cache.Stats { return cache.Stats{} }

func (l *largeInst) close() {}
