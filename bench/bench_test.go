package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/transport"
	"icc/internal/types"
)

func TestPercentileIsNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 10; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// A failed command sits beyond every acknowledged one.
	d = append(d, failedLatency)
	if got := percentile(d, 0.99); got != failedLatency {
		t.Errorf("p99 with one failure in 11 = %v, want the failure", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := spreadOf([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.n != 10 || s.median != 5.5 || s.iqr != (8.25-2.75)/5.5 {
		t.Errorf("spreadOf(1..10) = %+v, want median 5.5 and iqr 1", s)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	var s snapshot
	s.v[cOuterNs] = 100
	s.v[cInnerNs] = 80
	s.v[cBeaconNs] = 50
	s.v[cPayloadNs] = 4
	s.v[cCommitNs] = 6
	s.v[cVerifyNs] = 7
	s.v[cSendNs] = 3
	s.v[cSubmitNs] = 1
	want := layerBusy{gossip: 20, core: 20, beacon: 50, statemachine: 10, verify: 7, transport: 3, gateway: 1}
	if got := s.busy(); got != want {
		t.Errorf("busy() = %+v, want %+v", got, want)
	}
	if got := want.total(); got != 111 {
		t.Errorf("total() = %d, want 111 (the outer span plus what runs beside it)", got)
	}
	var earlier snapshot
	earlier.v[cOuterNs] = 40
	if got := s.sub(earlier).v[cOuterNs]; got != 60 {
		t.Errorf("sub: outer = %d, want 60", got)
	}
}

type fakeEngine struct{ outs []engine.Output }

func (f *fakeEngine) ID() types.PartyID                            { return 2 }
func (f *fakeEngine) Init(time.Duration) []engine.Output           { return f.outs }
func (f *fakeEngine) Tick(time.Duration) []engine.Output           { return f.outs }
func (f *fakeEngine) CurrentRound() types.Round                    { return 9 }
func (f *fakeEngine) NextWake(time.Duration) (time.Duration, bool) { return 7, true }
func (f *fakeEngine) HandleMessage(types.PartyID, types.Message, time.Duration) []engine.Output {
	return f.outs
}

func TestTracedEngineReturnsWhatTheEngineReturns(t *testing.T) {
	inner := &fakeEngine{outs: []engine.Output{engine.Broadcast(&types.BeaconShare{Round: 1})}}
	c := &counters{traced: true}
	e := &tracedEngine{Engine: inner, c: c, ns: cInnerNs, msgs: cInnerMsgs}
	for name, got := range map[string][]engine.Output{
		"Init": e.Init(0), "Tick": e.Tick(0), "HandleMessage": e.HandleMessage(1, nil, 0),
	} {
		if !reflect.DeepEqual(got, inner.outs) {
			t.Errorf("%s returned %v, want the inner engine's outputs", name, got)
		}
	}
	if at, ok := e.NextWake(0); at != 7 || !ok || e.ID() != 2 || e.CurrentRound() != 9 {
		t.Error("ID, NextWake or CurrentRound did not pass through")
	}
	if got := c.v[cInnerMsgs].Load(); got != 1 {
		t.Errorf("counted %d delivered messages, want 1", got)
	}
}

type fakeEndpoint struct {
	sent []types.Message
	err  error
}

func (f *fakeEndpoint) Send(_ types.PartyID, m types.Message) error {
	f.sent = append(f.sent, m)
	return f.err
}
func (f *fakeEndpoint) Inbox() <-chan transport.Envelope { return nil }
func (f *fakeEndpoint) Close() error                     { return nil }

func TestMeteredEndpointCountsEncodedBytesOncePerSend(t *testing.T) {
	for _, traced := range []bool{false, true} {
		inner := &fakeEndpoint{err: errors.New("refused")}
		c := &counters{traced: traced}
		ep := &meteredEndpoint{Endpoint: inner, c: c}
		a := &types.BeaconShare{Round: 3, Signer: 1, Share: make([]byte, 40)}
		b := &types.Advert{}
		for _, m := range []types.Message{a, a, a, b} { // a broadcast to three, then a unicast
			if err := ep.Send(0, m); err != inner.err {
				t.Fatalf("traced %v: Send returned %v, want the inner endpoint's error", traced, err)
			}
		}
		wantBytes := int64(3*len(types.Marshal(a)) + len(types.Marshal(b)))
		if got := c.v[cBytes].Load(); got != wantBytes || c.v[cSends].Load() != 4 {
			t.Errorf("traced %v: %d bytes in %d sends, want %d in 4", traced, got, c.v[cSends].Load(), wantBytes)
		}
		if len(inner.sent) != 4 || inner.sent[0] != types.Message(a) || inner.sent[3] != types.Message(b) {
			t.Errorf("traced %v: the inner endpoint did not get the same messages", traced)
		}
		if traced && (len(c.sample) != 2 || c.byKind[types.KindBeaconShare].Load() != int64(3*len(types.Marshal(a)))) {
			t.Errorf("traced: sample of %d messages, %d beacon-share bytes", len(c.sample), c.byKind[types.KindBeaconShare].Load())
		}
	}
}

// fakeBeacon answers the calls tracedBeacon wraps; any other call would
// hit the nil embedded interface and panic.
type fakeBeacon struct {
	beacon.Source
	revealAfter int
	shares      int
}

func (f *fakeBeacon) AddShare(*types.BeaconShare) (bool, error) {
	f.shares++
	return f.shares != 2, nil // the second one is a duplicate
}
func (f *fakeBeacon) Reveal(k types.Round) (hash.Digest, bool) {
	return hash.Digest{byte(k)}, f.shares >= f.revealAfter
}
func (f *fakeBeacon) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	return &types.BeaconShare{Round: k}, errors.New("not yet")
}
func (f *fakeBeacon) Leader(types.Round) (types.PartyID, bool) { return 3, true }

func TestTracedBeaconReturnsWhatTheBeaconReturns(t *testing.T) {
	c := &counters{traced: true}
	b := newTracedBeacon(&fakeBeacon{revealAfter: 3}, c)
	if sh, err := b.ShareForRound(5); sh.Round != 5 || err == nil {
		t.Error("ShareForRound did not return the inner share and error")
	}
	if p, ok := b.Leader(5); p != 3 || !ok {
		t.Error("Leader did not pass through")
	}
	if _, ok := b.Reveal(5); ok {
		t.Error("Reveal succeeded before the inner beacon did")
	}
	for i, want := range []bool{true, false, true} {
		if added, err := b.AddShare(&types.BeaconShare{Round: 5}); added != want || err != nil {
			t.Errorf("AddShare #%d = %v, %v; want %v, nil", i, added, err, want)
		}
	}
	for i := 0; i < 2; i++ { // the second call finds the round already known
		if d, ok := b.Reveal(5); !ok || d != (hash.Digest{5}) {
			t.Error("Reveal did not return the inner digest")
		}
	}
	if r, s := c.v[cReveals].Load(), c.v[cRevealShares].Load(); r != 1 || s != 2 {
		t.Errorf("counted %d reveals over %d shares, want 1 over the 2 admitted", r, s)
	}
}

type fakeVerifier struct{ err error }

func (f fakeVerifier) Authenticator(*types.Authenticator) error         { return f.err }
func (f fakeVerifier) NotarizationShare(*types.NotarizationShare) error { return f.err }
func (f fakeVerifier) Notarization(*types.Notarization) error           { return nil }
func (f fakeVerifier) FinalizationShare(*types.FinalizationShare) error { return nil }
func (f fakeVerifier) Finalization(*types.Finalization) error           { return nil }

func TestTracedVerifierReturnsWhatTheVerifierReturns(t *testing.T) {
	c := &counters{traced: true}
	bad := errors.New("bad signature")
	v := &tracedVerifier{inner: fakeVerifier{err: bad}, c: c}
	if v.Authenticator(nil) != bad || v.NotarizationShare(nil) != bad {
		t.Error("a reject did not come back as the inner error")
	}
	if v.Notarization(nil) != nil || v.FinalizationShare(nil) != nil || v.Finalization(nil) != nil {
		t.Error("an accept came back as an error")
	}
	if calls, rejects := c.v[cVerifyCalls].Load(), c.v[cVerifyRejects].Load(); calls != 5 || rejects != 2 {
		t.Errorf("counted %d checks and %d rejects, want 5 and 2", calls, rejects)
	}
}

// manifest is BENCHMARK.json at the root of the repository.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestListsWhatTheBenchDefines(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the bench %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the bench %q", i, m.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the bench %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, s := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != s.name || got.Unit != s.unit || got.Better != s.better || got.Bound != s.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json says %+v, the bench %+v", i, got, s)
		}
	}
	for i, s := range perLayer {
		if got := m.PerLayer[i]; got.Name != s.name || got.Unit != s.unit {
			t.Errorf("per_layer %d: BENCHMARK.json says %+v, the bench %+v", i, got, s)
		}
	}
}

// TestSmokePrintsExactlyTheListedMetrics runs steady-n4 over a two-second
// window both ways and holds the metric names against BENCHMARK.json.
func TestSmokePrintsExactlyTheListedMetrics(t *testing.T) {
	m := readManifest(t)
	w, _ := findWorkload("steady-n4")
	for _, traced := range []bool{false, true} {
		traced := traced
		name := "untraced"
		var want []string
		for _, s := range m.EndToEnd {
			want = append(want, s.Name)
		}
		if traced {
			name, want = "traced", nil
			for _, s := range m.PerLayer {
				want = append(want, s.Name)
			}
		}
		t.Run(name, func(t *testing.T) {
			rec, err := run(w, 1, 2, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted != 2*loadRate {
				t.Errorf("correct %v, failed %d of %d attempted", rec.Correct, rec.Failed, rec.Attempted)
			}
			var got []string
			for k := range rec.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("metrics printed:\n %v\nBENCHMARK.json lists:\n %v", got, want)
			}
			if traced && rec.Metrics["beacon.busy_share"].Value <= rec.Metrics["core.busy_share"].Value {
				t.Errorf("steady-n4 should be beacon-bound: beacon %v, core %v",
					rec.Metrics["beacon.busy_share"].Value, rec.Metrics["core.busy_share"].Value)
			}
		})
	}
}
