package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdrank/internal/crowd"
	"crowdrank/internal/feq"
	"crowdrank/internal/obs"
	"crowdrank/internal/record"
	"crowdrank/internal/snapshot"
)

// agreeingVotes has every worker vote every pair according to the identity
// order, so exact inference must recover 0 < 1 < ... < n-1.
func agreeingVotes(n, m int) []crowd.Vote {
	var votes []crowd.Vote
	for w := 0; w < m; w++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				votes = append(votes, crowd.Vote{Worker: w, I: i, J: j, PrefersI: true})
			}
		}
	}
	return votes
}

// noisyVotes is a conflicted electorate: workers disagree pseudo-randomly,
// which keeps exact search from short-circuiting on an easy instance.
func noisyVotes(n, m int, seed uint64) []crowd.Vote {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	var votes []crowd.Vote
	for w := 0; w < m; w++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				votes = append(votes, crowd.Vote{Worker: w, I: i, J: j, PrefersI: rng.Float64() < 0.55})
			}
		}
	}
	return votes
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return s
}

func assertPermutation(t *testing.T, n int, ranking []int) {
	t.Helper()
	if len(ranking) != n {
		t.Fatalf("ranking %v has length %d, want %d", ranking, len(ranking), n)
	}
	seen := make([]bool, n)
	for _, v := range ranking {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("ranking %v is not a permutation of %d objects", ranking, n)
		}
		seen[v] = true
	}
}

func TestIngestAndExactRank(t *testing.T) {
	cfg := DefaultConfig(6, 3)
	cfg.Seed = 11
	s := newTestServer(t, cfg)

	res, err := s.Ingest(agreeingVotes(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 45 || res.Duplicates != 0 || res.Malformed != 0 {
		t.Fatalf("unexpected ingest result %+v", res)
	}
	rr, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm != AlgoExactBranchBound {
		t.Fatalf("n=6 unanimous instance should use %s, got %s", AlgoExactBranchBound, rr.Algorithm)
	}
	if rr.Degraded {
		t.Fatal("exact answer should not be marked degraded")
	}
	for i, v := range rr.Ranking {
		if v != i {
			t.Fatalf("unanimous identity votes should rank identically, got %v", rr.Ranking)
		}
	}
	if rr.Votes != 45 || rr.Seed != 11 {
		t.Fatalf("result metadata wrong: %+v", rr)
	}
}

func TestRankWithoutVotes(t *testing.T) {
	cfg := DefaultConfig(5, 2)
	cfg.Seed = 1
	s := newTestServer(t, cfg)
	rr, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm != AlgoUninformed {
		t.Fatalf("empty state should answer %s, got %s", AlgoUninformed, rr.Algorithm)
	}
	assertPermutation(t, 5, rr.Ranking)
}

func TestIngestDeduplicatesAcrossBatches(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 3
	s := newTestServer(t, cfg)
	if _, err := s.Ingest([]crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: true}}); err != nil {
		t.Fatal(err)
	}
	// Same submission, mirrored encoding: must collide with the first.
	res, err := s.Ingest([]crowd.Vote{{Worker: 0, I: 1, J: 0, PrefersI: false}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Duplicates != 1 {
		t.Fatalf("mirrored resubmission should dedup, got %+v", res)
	}
	// The same pair from another worker is a distinct submission.
	res, err = s.Ingest([]crowd.Vote{{Worker: 1, I: 0, J: 1, PrefersI: false}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 {
		t.Fatalf("distinct worker should be accepted, got %+v", res)
	}
	if s.VoteCount() != 2 {
		t.Fatalf("want 2 deduplicated votes, got %d", s.VoteCount())
	}
}

func TestIngestContextRefusesCancelledBatch(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 3
	s := newTestServer(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.IngestKeyed(ctx, "", agreeingVotes(4, 1)); err == nil {
		t.Fatal("cancelled ingest must be refused")
	}
	if s.VoteCount() != 0 {
		t.Fatalf("refused batch must not change state, got %d votes", s.VoteCount())
	}
}

func TestIngestCountsMalformed(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 3
	s := newTestServer(t, cfg)
	res, err := s.Ingest([]crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 9, I: 0, J: 1, PrefersI: true},  // worker outside pool
		{Worker: 0, I: 2, J: 2, PrefersI: true},  // self-pair
		{Worker: 0, I: -1, J: 1, PrefersI: true}, // negative id
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Malformed != 3 {
		t.Fatalf("want 1 accepted / 3 malformed, got %+v", res)
	}
}

func TestJournalRecoveryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	cfg := DefaultConfig(6, 3)
	cfg.Seed = 21
	cfg.JournalPath = path

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := agreeingVotes(6, 3)
	for i := 0; i < len(all); i += 9 {
		if _, err := s.Ingest(all[i : i+9]); err != nil {
			t.Fatal(err)
		}
	}
	wantVotes, _ := s.snapshot()
	want, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := newTestServer(t, cfg)
	if r.Recovered().Records != 5 {
		t.Fatalf("want 5 replayed batches, got %d", r.Recovered().Records)
	}
	if r.Recovered().Truncated() {
		t.Fatalf("clean journal should not report truncation: %+v", r.Recovered())
	}
	gotVotes, _ := r.snapshot()
	if len(gotVotes) != len(wantVotes) {
		t.Fatalf("recovered %d votes, want %d", len(gotVotes), len(wantVotes))
	}
	for i := range gotVotes {
		if gotVotes[i] != wantVotes[i] {
			t.Fatalf("vote %d differs after recovery: %+v vs %+v", i, gotVotes[i], wantVotes[i])
		}
	}
	got, err := r.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != want.Algorithm {
		t.Fatalf("recovered server used %s, original %s", got.Algorithm, want.Algorithm)
	}
	for i := range want.Ranking {
		if got.Ranking[i] != want.Ranking[i] {
			t.Fatalf("recovered ranking %v differs from original %v", got.Ranking, want.Ranking)
		}
	}
}

// TestRecoveryReportsDroppedVotes reopens a journal under a smaller
// object universe: the replayed votes that fall outside it are dropped,
// as before, and now counted in RecoveryStats and its log line instead of
// vanishing silently.
func TestRecoveryReportsDroppedVotes(t *testing.T) {
	cfg := DefaultConfig(8, 3)
	cfg.Seed = 23
	cfg.JournalPath = filepath.Join(t.TempDir(), "wal")
	s := newTestServer(t, cfg)
	votes := agreeingVotes(8, 3)
	if _, err := s.Ingest(votes); err != nil {
		t.Fatal(err)
	}
	outside := 0
	for _, v := range votes {
		if v.I >= 6 || v.J >= 6 {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("test votes never name objects 6 or 7")
	}

	cfg.N = 6
	r := restart(t, s, cfg)
	rec := r.Recovered()
	if rec.DroppedVotes != outside || r.VoteCount() != len(votes)-outside {
		t.Fatalf("reopened under N=6: %d dropped, %d kept; want %d dropped, %d kept",
			rec.DroppedVotes, r.VoteCount(), outside, len(votes)-outside)
	}
	if want := fmt.Sprintf("dropped %d vote(s) outside the configured universe", outside); !strings.Contains(rec.String(), want) {
		t.Fatalf("recovery log line %q does not report the drop", rec.String())
	}
}

func TestServerRejectsForeignJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	big := DefaultConfig(50, 10)
	big.Seed = 5
	big.JournalPath = path
	s, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest([]crowd.Vote{{Worker: 9, I: 40, J: 49, PrefersI: true}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening under a smaller universe must not silently poison state:
	// out-of-universe votes are dropped per decodeVotes's contract, leaving
	// an empty, healthy server rather than a refused start.
	small := DefaultConfig(4, 2)
	small.Seed = 5
	small.JournalPath = path
	r := newTestServer(t, small)
	if r.VoteCount() != 0 {
		t.Fatalf("out-of-universe votes must be dropped on replay, got %d", r.VoteCount())
	}
}

func TestCloseMakesRequestsFailFast(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 9
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
	if _, err := s.Ingest(agreeingVotes(4, 1)); err == nil {
		t.Fatal("ingest after Close should fail")
	}
	if _, err := s.Rank(); err == nil {
		t.Fatal("rank after Close should fail")
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	votes := agreeingVotes(5, 3)
	got, _, dropped, err := decodeVotes(nil, appendVotes(nil, packed(votes)), 5, 3)
	if err != nil || dropped != 0 {
		t.Fatalf("round trip failed: err=%v dropped=%d", err, dropped)
	}
	if len(got) != len(votes) {
		t.Fatalf("decoded %d votes, want %d", len(got), len(votes))
	}
	for i := range got {
		if got[i].Vote() != votes[i] {
			t.Fatalf("vote %d: got %+v want %+v", i, got[i].Vote(), votes[i])
		}
	}
}

func TestBatchCodecRejectsStructuralDamage(t *testing.T) {
	good := appendVotes(nil, packed(agreeingVotes(4, 2)))
	cases := map[string][]byte{
		"empty payload":    {},
		"truncated":        good[:len(good)-2],
		"trailing bytes":   append(bytes.Clone(good), 0xff),
		"bogus count":      {0xff, 0xff, 0xff, 0xff, 0xff},
		"bad pref byte":    {1, 0, 0, 1, 7},
		"count over bytes": {200, 1, 0, 0, 1, 1},
	}
	for name, data := range cases {
		if _, _, _, err := decodeVotes(nil, data, 4, 2); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}

func TestBatchCodecDropsOutOfUniverse(t *testing.T) {
	votes := []crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 7, I: 0, J: 1, PrefersI: true}, // worker outside m=2
		{Worker: 1, I: 0, J: 9, PrefersI: false},
	}
	got, _, dropped, err := decodeVotes(nil, appendVotes(nil, packed(votes)), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || dropped != 2 {
		t.Fatalf("want 1 kept / 2 dropped, got %d/%d", len(got), dropped)
	}
}

// TestDecodersBoundAllocation feeds the binary decoders crafted inputs
// whose counts promise one vote or ack per byte of the list they head,
// and near-legal ones at the bound of one vote per 4 bytes: a batch
// record or snapshot may make its decoder allocate at most 8 bytes per
// input byte plus allocSlack before it is refused.
func TestDecodersBoundAllocation(t *testing.T) {
	const size = 1 << 20
	const allocSlack = 64 << 10
	// list appends a count (3 varint bytes for any count used here) to
	// head and zeros up to size bytes; perByte makes the count the number
	// of zeros, otherwise a quarter of it.
	list := func(head []byte, perByte bool) []byte {
		count := size - len(head) - 3
		if !perByte {
			count /= 4
		}
		head = binary.AppendUvarint(bytes.Clone(head), uint64(count))
		return append(head, make([]byte, size-len(head))...)
	}
	// snapshotFile frames payload as a checksum-valid snapshot file.
	snapshotFile := func(payload []byte) []byte {
		file := binary.LittleEndian.AppendUint32([]byte("CRWDSNP\x02"), record.Checksum(payload))
		file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
		return append(file, payload...)
	}
	record := func(data []byte) error {
		_, err := decodeBatchRecord(data, 4, 2)
		return err
	}
	snap := func(data []byte) error {
		_, err := snapshot.Decode(data)
		return err
	}
	// universe is a snapshot payload's header: n=4, m=2, seq, gen, dups.
	universe := []byte{4, 2, 0, 0, 0}
	cases := []struct {
		name   string
		decode func([]byte) error
		data   []byte
	}{
		{"v1 record, count = length", record, list(nil, true)},
		{"v2 record, count = length", record, list([]byte{0, 0, 0}, true)},
		{"v2 record, count = length/4", record, list([]byte{0, 0, 0}, false)},
		{"snapshot, vote count = length", snap, snapshotFile(list(universe, true))},
		{"snapshot, vote count = length/4", snap, snapshotFile(list(universe, false))},
		{"snapshot, ack count = length", snap, snapshotFile(list(append(universe, 0), true))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(tc.data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("crafted input decoded without error")
			}
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(tc.data)+allocSlack); got > bound {
				t.Fatalf("decoding %d bytes allocated %d, bound %d (%v)", len(tc.data), got, bound, err)
			}
		})
	}
}

// TestVotesBodyBoundsAllocation posts crafted POST /votes bodies of up to
// maxBodyBytes (32 MiB) through Handler(): a body of millions of votes,
// empty or well formed, in one array or two, must allocate no more than
// a bound set by maxBatchVotes, not by the body's size.
func TestVotesBodyBoundsAllocation(t *testing.T) {
	const perVote, slack = 40, 1 << 20
	const size = maxBodyBytes
	// array fills a votes array with copies of vote up to about n bytes.
	array := func(vote string, n int) string {
		return `"votes":[` + strings.Repeat(vote+",", n/(len(vote)+1)-1) + vote + "]"
	}
	// Bodies are built one at a time, so the test holds one 32 MiB body.
	bodies := []struct {
		name    string
		body    func() string
		chunked bool // no Content-Length to size the batch by
	}{
		{"empty votes", func() string { return "{" + array("{}", size-16) + "}" }, false},
		{"valid votes", func() string { return "{" + array(`{"i":0,"j":1}`, size-16) + "}" }, false},
		{"valid votes, chunked", func() string { return "{" + array(`{"i":0,"j":1}`, size-16) + "}" }, true},
		{"two arrays", func() string { return "{" + array(`{"i":0,"j":1}`, size/2-16) + "," + array("{}", size/2-16) + "}" }, false},
		{"malformed, then mended, chunked", func() string { return "{" + array(`{"i":0}`, size/2-16) + "," + array(`{"j":1}`, size/2-16) + "}" }, true},
		{"over the body cap", func() string { return "{" + array(`{"i":0,"j":1}`, size+1024) + "}" }, false},
	}
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 83
	h := newTestServer(t, cfg).Handler()
	for _, tc := range bodies {
		t.Run(fmt.Sprintf("%s/max=%d", tc.name, maxBatchVotes), func(t *testing.T) {
			body := tc.body()
			r := httptest.NewRequest(http.MethodPost, "/votes", strings.NewReader(body))
			if tc.chunked {
				r.ContentLength = -1
			}
			w := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(w, r)
			runtime.ReadMemStats(&after)
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413: %s", w.Code, w.Body)
			}
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(perVote*maxBatchVotes+slack); got > bound {
				t.Fatalf("a %d-byte body allocated %d bytes, bound %d", len(body), got, bound)
			}
		})
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	var trips obs.Counter
	b := newBreaker(clock, &trips)

	if !b.allow() || b.state() != "closed" {
		t.Fatal("fresh breaker should be closed")
	}
	for i := 1; i < breakerThreshold; i++ {
		b.failure()
	}
	if !b.allow() || trips.Value() != 0 {
		t.Fatal("below threshold the breaker stays closed")
	}
	b.failure() // the threshold-th consecutive failure trips it
	if b.allow() || b.state() != "open" || trips.Value() != 1 {
		t.Fatalf("breaker should be open after one trip, state=%s trips=%d", b.state(), trips.Value())
	}

	clock.Advance(breakerCooldown - time.Second)
	if b.allow() || b.state() != "open" {
		t.Fatalf("inside the cooldown the breaker stays open, state=%s", b.state())
	}
	clock.Advance(2 * time.Second)
	if b.state() != "half-open" {
		t.Fatalf("cooldown elapsed: want half-open, got %s", b.state())
	}
	if !b.allow() {
		t.Fatal("first caller after cooldown should get the probe")
	}
	if b.allow() {
		t.Fatal("only one probe may be in flight")
	}
	b.failure() // probe overran: re-open for a fresh cooldown
	if b.allow() || b.state() != "open" || trips.Value() != 2 {
		t.Fatalf("failed probe should re-open, state=%s trips=%d", b.state(), trips.Value())
	}

	clock.Advance(breakerCooldown + time.Second)
	if !b.allow() {
		t.Fatal("second probe should be admitted")
	}
	b.success()
	if !b.allow() || b.state() != "closed" {
		t.Fatalf("successful probe should close the breaker, state=%s", b.state())
	}

	// A success resets the consecutive-failure count.
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if !b.allow() {
		t.Fatal("failure count should reset on success")
	}
}

func TestBreakerSkipsExactRung(t *testing.T) {
	cfg := DefaultConfig(6, 2)
	cfg.Seed = 13
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(agreeingVotes(6, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < breakerThreshold; i++ {
		s.breaker.failure()
	}
	rr, err := s.Rank()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Algorithm == AlgoExactBranchBound {
		t.Fatalf("open breaker must skip the exact rung, got %s", rr.Algorithm)
	}
	if !rr.Degraded {
		t.Fatal("a skipped exact rung is a degraded answer")
	}
	if rr.Breaker != "open" {
		t.Fatalf("response should report the breaker open, got %s", rr.Breaker)
	}
	assertPermutation(t, 6, rr.Ranking)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, M: 2},
		{N: 3, M: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	s := newTestServer(t, Config{N: 3, M: 2})
	if s.Seed() == 0 {
		t.Fatal("zero seed should be replaced by a drawn one")
	}
}

// --- HTTP layer ---

func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// voteJSON and ingestRequest are the POST /votes body's struct form, for
// tests that build bodies with encoding/json.
type voteJSON struct {
	Worker   int  `json:"worker"`
	I        int  `json:"i"`
	J        int  `json:"j"`
	PrefersI bool `json:"prefers_i"`
}

type ingestRequest struct {
	Votes []voteJSON `json:"votes"`
}

func postVotes(t *testing.T, url string, votes []crowd.Vote) *http.Response {
	t.Helper()
	req := ingestRequest{}
	for _, v := range votes {
		req.Votes = append(req.Votes, voteJSON{Worker: v.Worker, I: v.I, J: v.J, PrefersI: v.PrefersI})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/votes", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	return resp
}

func TestHTTPIngestAndRank(t *testing.T) {
	cfg := DefaultConfig(6, 3)
	cfg.Seed = 17
	_, ts := httpServer(t, cfg)

	resp := postVotes(t, ts.URL, agreeingVotes(6, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ir IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 45 {
		t.Fatalf("want 45 accepted, got %+v", ir)
	}

	resp2, err := http.Get(ts.URL + "/rank")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("rank status %d", resp2.StatusCode)
	}
	var rr RankResult
	if err := json.NewDecoder(resp2.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, 6, rr.Ranking)
	if rr.Algorithm == "" {
		t.Fatal("response must name the algorithm that answered")
	}
}

// TestHTTPTinyDeadlineStillAnswers is the acceptance criterion: a rank
// request whose deadline cannot afford real inference still gets HTTP 200
// with a ranking, and the response names the degraded algorithm.
func TestHTTPTinyDeadlineStillAnswers(t *testing.T) {
	n := 60
	cfg := DefaultConfig(n, 5)
	cfg.Seed = 23
	_, ts := httpServer(t, cfg)

	if resp := postVotes(t, ts.URL, noisyVotes(n, 5, 23)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/rank?deadline_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a 50ms-deadline rank must still answer 200, got %d", resp.StatusCode)
	}
	var rr RankResult
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, n, rr.Ranking)
	switch rr.Algorithm {
	case AlgoExactBranchBound, AlgoGreedy:
	default:
		t.Fatalf("unexpected algorithm %q for n=%d at 50ms", rr.Algorithm, n)
	}
	// At 1ms the deadline passes before or during exact search, which
	// cannot prove these conflicted votes within its work cap anyway: the
	// floor must still answer, and the response must say the ladder
	// degraded. One new vote moves the generation first, so the better
	// answer cached above does not apply.
	flipped := noisyVotes(n, 5, 23)[0]
	flipped.PrefersI = !flipped.PrefersI
	if resp := postVotes(t, ts.URL, []crowd.Vote{flipped}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/rank?deadline_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("a 1ms-deadline rank must still answer 200, got %d", resp2.StatusCode)
	}
	var rr2 RankResult
	if err := json.NewDecoder(resp2.Body).Decode(&rr2); err != nil {
		t.Fatal(err)
	}
	assertPermutation(t, n, rr2.Ranking)
	if !rr2.Degraded {
		t.Fatalf("1ms deadline must degrade, got %+v algorithm %s", rr2.Degraded, rr2.Algorithm)
	}
	if rr2.Algorithm != AlgoGreedy {
		t.Fatalf("1ms deadline should hit the greedy floor, got %s", rr2.Algorithm)
	}
}

// getRank fetches GET /rank at the given deadline and decodes the body.
func getRank(t *testing.T, url string, deadlineMS int) (RankResult, http.Header) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/rank?deadline_ms=%d", url, deadlineMS))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a %dms-deadline rank must answer 200, got %d", deadlineMS, resp.StatusCode)
	}
	var rr RankResult
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr, resp.Header
}

// TestHTTPTinyDeadlineGetsCachedRung is the sibling of
// TestHTTPTinyDeadlineStillAnswers at an unchanged generation: the 1ms
// request cannot afford exact search itself, but the exact answer an
// earlier request cached at this generation is what it gets. Agreeing
// votes keep branch-and-bound at n=60 well inside the first request's
// budget.
func TestHTTPTinyDeadlineGetsCachedRung(t *testing.T) {
	n := 60
	cfg := DefaultConfig(n, 5)
	cfg.Seed = 23
	_, ts := httpServer(t, cfg)
	if resp := postVotes(t, ts.URL, agreeingVotes(n, 5)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	first, _ := getRank(t, ts.URL, 2000)
	if first.Algorithm != AlgoExactBranchBound {
		t.Fatalf("a 2s deadline should reach exact search, got %s", first.Algorithm)
	}
	tight, _ := getRank(t, ts.URL, 1)
	if tight.Algorithm != first.Algorithm || tight.Degraded != first.Degraded || tight.Gen != first.Gen {
		t.Fatalf("1ms rank at an unchanged generation got %s (degraded=%v, gen %d), want the cached %s (degraded=%v, gen %d)",
			tight.Algorithm, tight.Degraded, tight.Gen, first.Algorithm, first.Degraded, first.Gen)
	}
	if !slices.Equal(tight.Ranking, first.Ranking) || !feq.Eq(tight.LogProb, first.LogProb) {
		t.Fatalf("cached answer differs: %v (%g) vs %v (%g)", tight.Ranking, tight.LogProb, first.Ranking, first.LogProb)
	}
}

// TestHTTPRankConditionalGet: /rank tags every answer with its generation
// and rung, a matching If-None-Match is answered 304 without a body, and
// an upgraded or invalidated cache entry changes the tag.
func TestHTTPRankConditionalGet(t *testing.T) {
	cfg := DefaultConfig(6, 2)
	cfg.Seed = 19
	s, ts := httpServer(t, cfg)
	if resp := postVotes(t, ts.URL, agreeingVotes(6, 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	// conditional sends If-None-Match: inm; a 304 must carry the cached
	// tag, which is the last one in every list sent below.
	conditional := func(inm string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/rank", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if tag := resp.Header.Get("ETag"); resp.StatusCode == http.StatusNotModified && (tag == "" || !strings.HasSuffix(inm, tag)) {
			t.Fatalf("304 must carry the matched tag from %s, got %q", inm, tag)
		}
		return resp.StatusCode
	}

	// With the breaker open the ladder caches the floor.
	for i := 0; i < breakerThreshold; i++ {
		s.breaker.failure()
	}
	floor, h := getRank(t, ts.URL, 1000)
	floorTag := h.Get("ETag")
	if floor.Algorithm != AlgoGreedy || floorTag != fmt.Sprintf(`"%d-greedy"`, floor.Gen) {
		t.Fatalf("want the floor tagged with its generation, got %s with ETag %q", floor.Algorithm, floorTag)
	}
	if code := conditional(floorTag); code != http.StatusNotModified {
		t.Fatalf("If-None-Match with the cached tag should 304, got %d", code)
	}
	if code := conditional(`"other", W/` + floorTag); code != http.StatusNotModified {
		t.Fatalf("a tag list naming the cached tag (weakly) should 304, got %d", code)
	}

	// Closing the breaker lets the next full request upgrade the entry to
	// exact search; the floor's tag is stale from then on. Its deadline_ms
	// is past the cap by so much that it would wrap negative as a Duration
	// if it were not clamped first.
	s.breaker.success()
	exact, h := getRank(t, ts.URL, 10_000_000_000_000)
	if exact.Algorithm != AlgoExactBranchBound || exact.Gen != floor.Gen {
		t.Fatalf("want an exact upgrade at generation %d, got %s at %d", floor.Gen, exact.Algorithm, exact.Gen)
	}
	if code := conditional(floorTag); code != http.StatusOK {
		t.Fatalf("a tag naming the replaced rung must not 304, got %d", code)
	}
	exactTag := h.Get("ETag")
	if code := conditional(exactTag); code != http.StatusNotModified {
		t.Fatalf("If-None-Match with the upgraded tag should 304, got %d", code)
	}

	// New votes move the generation, so the exact tag is stale whether or
	// not the build-ahead has cached the new generation's floor yet.
	if resp := postVotes(t, ts.URL, []crowd.Vote{{Worker: 0, I: 0, J: 1, PrefersI: false}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if code := conditional(exactTag); code != http.StatusOK {
		t.Fatalf("a tag from an older generation must not 304, got %d", code)
	}
}

// take occupies n slots of a bounded request queue and returns the
// function that frees them again.
func take(sem chan struct{}, n int) (release func()) {
	for range n {
		sem <- struct{}{}
	}
	return func() {
		for range n {
			<-sem
		}
	}
}

// TestHTTPBackpressure pins the 429 contract of both bounded queues: one
// free slot still serves, and with every slot taken the request is
// rejected at once with Retry-After: 5, a value strconv can parse,
// because naive clients do exactly that.
func TestHTTPBackpressure(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 29
	s, ts := httpServer(t, cfg)
	if cap(s.rankSem) != maxConcurrentRanks || cap(s.ingestSem) != maxConcurrentIngests {
		t.Fatalf("queue caps %d and %d, want %d and %d", cap(s.rankSem), cap(s.ingestSem), maxConcurrentRanks, maxConcurrentIngests)
	}
	rank := func() *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/rank")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = resp.Body.Close() })
		return resp
	}
	rejected := func(what string, resp *http.Response) {
		t.Helper()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("full %s queue should 429, got %d", what, resp.StatusCode)
		}
		raw := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(raw); err != nil || secs != 5 {
			t.Fatalf("%s 429 must carry a parseable Retry-After: 5, got %q", what, raw)
		}
	}

	defer take(s.rankSem, cap(s.rankSem)-1)()
	defer take(s.ingestSem, cap(s.ingestSem)-1)()
	if resp := postVotes(t, ts.URL, agreeingVotes(4, 2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest with one free slot should 200, got %d", resp.StatusCode)
	}
	if resp := rank(); resp.StatusCode != http.StatusOK {
		t.Fatalf("rank with one free slot should 200, got %d", resp.StatusCode)
	}

	defer take(s.rankSem, 1)()
	defer take(s.ingestSem, 1)()
	rejected("rank", rank())
	rejected("ingest", postVotes(t, ts.URL, agreeingVotes(4, 2)))
}

// TestBatchCapBoundary pins the batch cap at its value: a batch of
// exactly maxBatchVotes votes is accepted, and one vote more is refused
// whole — 413 through POST /votes, errBatchTooLarge through IngestKeyed —
// with nothing journaled.
func TestBatchCapBoundary(t *testing.T) {
	const n, m = 64, 40 // 2016 pairs x 40 workers: room for distinct votes
	cfg := DefaultConfig(n, m)
	cfg.Seed = 37
	cfg.JournalPath = filepath.Join(t.TempDir(), "wal")
	s, ts := httpServer(t, cfg)
	votes := make([]crowd.Vote, 0, maxBatchVotes+1)
	for w := 0; len(votes) <= maxBatchVotes; w++ {
		for i := 0; i < n && len(votes) <= maxBatchVotes; i++ {
			for j := i + 1; j < n && len(votes) <= maxBatchVotes; j++ {
				votes = append(votes, crowd.Vote{Worker: w, I: i, J: j, PrefersI: true})
			}
		}
	}

	before := s.StatsSnapshot()
	resp, err := http.Post(ts.URL+"/votes", "application/json", bytes.NewReader(crowd.AppendVotesJSON(nil, votes)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST of %d votes should 413, got %d", len(votes), resp.StatusCode)
	}
	if _, err := s.IngestKeyed(context.Background(), "", votes); !errors.Is(err, errBatchTooLarge) {
		t.Fatalf("IngestKeyed of %d votes: %v, want errBatchTooLarge", len(votes), err)
	}
	if after := s.StatsSnapshot(); after.Batches != before.Batches || after.Votes != 0 || after.JournalBytes != before.JournalBytes {
		t.Fatalf("refused batches reached the journal: before %+v after %+v", before, after)
	}

	resp = postVotes(t, ts.URL, votes[:maxBatchVotes])
	var ack IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&ack); resp.StatusCode != http.StatusOK || err != nil || ack.Accepted != maxBatchVotes {
		t.Fatalf("POST of exactly %d votes: status %d, %+v, %v", maxBatchVotes, resp.StatusCode, ack, err)
	}
	ack, err = s.IngestKeyed(context.Background(), "", votes[1:])
	if err != nil || ack.Accepted != 1 || ack.Duplicates != maxBatchVotes-1 {
		t.Fatalf("IngestKeyed of exactly %d votes: %+v, %v", maxBatchVotes, ack, err)
	}
}

func TestHTTPValidationErrors(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 31
	_, ts := httpServer(t, cfg)

	resp, err := http.Post(ts.URL+"/votes", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON should 400, got %d", resp.StatusCode)
	}

	for _, q := range []string{"deadline_ms=0", "deadline_ms=-5", "deadline_ms=soon"} {
		resp, err := http.Get(ts.URL + "/rank?" + q)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s should 400, got %d", q, resp.StatusCode)
		}
	}

	resp3, err := http.Get(ts.URL + "/votes") // wrong method
	if err != nil {
		t.Fatal(err)
	}
	_ = resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /votes should 405, got %d", resp3.StatusCode)
	}
}

func TestHTTPHealthAndReadiness(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 37
	s, ts := httpServer(t, cfg)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 4 || st.Workers != 2 || st.Breaker != "closed" {
		t.Fatalf("unexpected stats %+v", st)
	}

	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d", resp2.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/readyz", "/rank"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during shutdown should 503, got %d", path, resp.StatusCode)
		}
	}
	if resp := postVotes(t, ts.URL, agreeingVotes(4, 2)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest during shutdown should 503, got %d", resp.StatusCode)
	}
}

func TestClosureCacheInvalidation(t *testing.T) {
	cfg := DefaultConfig(5, 2)
	cfg.Seed = 41
	s := newTestServer(t, cfg)
	if _, err := s.Ingest(agreeingVotes(5, 1)); err != nil {
		t.Fatal(err)
	}
	e1, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	if e1.closure != e2.closure {
		t.Fatal("unchanged state must reuse the cached closure")
	}
	// A duplicate-only batch must not invalidate the cache...
	if _, err := s.Ingest(agreeingVotes(5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, gen2 := s.snapshot(); gen2 != e1.gen {
		t.Fatal("duplicate-only batch should not bump the generation")
	}
	// ...but new votes must.
	if _, err := s.Ingest([]crowd.Vote{{Worker: 1, I: 0, J: 1, PrefersI: false}}); err != nil {
		t.Fatal(err)
	}
	e3, err := s.current()
	if err != nil {
		t.Fatal(err)
	}
	if e3.gen == e1.gen {
		t.Fatal("new votes must bump the generation")
	}
	if e3.closure == e1.closure {
		t.Fatal("new generation must rebuild the closure")
	}
}

func TestStatsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 43
	cfg.JournalPath = path
	s := newTestServer(t, cfg)
	if _, err := s.Ingest([]crowd.Vote{
		{Worker: 0, I: 0, J: 1, PrefersI: true},
		{Worker: 0, I: 1, J: 0, PrefersI: false}, // duplicate
		{Worker: 5, I: 0, J: 1, PrefersI: true},  // malformed
	}); err != nil {
		t.Fatal(err)
	}
	st := s.StatsSnapshot()
	if st.Votes != 1 || st.Duplicates != 1 || st.Malformed != 1 || st.Batches != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if st.Journal != path || st.Seed != 43 || st.Closing {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func ExampleServer() {
	cfg := DefaultConfig(4, 2)
	cfg.Seed = 7
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	defer func() { _ = s.Close() }()
	if _, err := s.Ingest(agreeingVotes(4, 2)); err != nil {
		panic(err)
	}
	rr, err := s.Rank()
	if err != nil {
		panic(err)
	}
	fmt.Println(rr.Ranking, rr.Algorithm)
	// Output: [0 1 2 3] exact:branchbound
}
