package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serial"
)

func openFleetStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenFleet(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLeaseAcquireRenewRelease walks the happy path of the lease
// protocol across two stores sharing one directory: exclusive
// acquisition, holder discovery, renewal, clean release, and the token
// bump on handoff.
func TestLeaseAcquireRenewRelease(t *testing.T) {
	dir := t.TempDir()
	a := openFleetStore(t, dir)
	b := openFleetStore(t, dir)

	tok, ok, err := a.TryAcquire("a", "http://a", time.Minute)
	if err != nil || !ok || tok != 1 {
		t.Fatalf("first acquire: token %d ok %v err %v, want token 1", tok, ok, err)
	}
	if a.Fence() != 1 {
		t.Fatalf("fence not installed: %d", a.Fence())
	}

	// Re-acquiring our own live lease is idempotent: same token.
	tok2, ok, err := a.TryAcquire("a", "http://a", time.Minute)
	if err != nil || !ok || tok2 != tok {
		t.Fatalf("re-acquire: token %d ok %v err %v, want token %d", tok2, ok, err, tok)
	}

	// A peer cannot steal a live lease.
	if _, ok, err := b.TryAcquire("b", "http://b", time.Minute); err != nil || ok {
		t.Fatalf("steal succeeded: ok %v err %v", ok, err)
	}
	if b.Fence() != 0 {
		t.Fatalf("loser got a fence: %d", b.Fence())
	}

	// The holder is discoverable (proxy target for followers).
	rec, found, err := b.LeaseHolder()
	if err != nil || !found || rec.Owner != "a" || rec.URL != "http://a" || rec.Token != tok {
		t.Fatalf("holder record: %+v found %v err %v", rec, found, err)
	}

	if ok, err := a.Renew("a", tok, time.Minute); err != nil || !ok {
		t.Fatalf("renew by holder: ok %v err %v", ok, err)
	}
	if ok, err := b.Renew("b", tok, time.Minute); err != nil || ok {
		t.Fatalf("renew by non-holder succeeded: ok %v err %v", ok, err)
	}

	if err := a.Release("a", tok); err != nil {
		t.Fatal(err)
	}
	if a.Fence() != 0 {
		t.Fatalf("fence survived release: %d", a.Fence())
	}

	// After a clean release the peer wins, with a strictly larger token.
	tok3, ok, err := b.TryAcquire("b", "http://b", time.Minute)
	if err != nil || !ok || tok3 != tok+1 {
		t.Fatalf("acquire after release: token %d ok %v err %v, want %d", tok3, ok, err, tok+1)
	}
}

// TestLeaseExpiryElection: a dead leader's lease expires by TTL and a
// follower takes over with a bumped token; the late leader's renew
// fails and its fence is cleared.
func TestLeaseExpiryElection(t *testing.T) {
	dir := t.TempDir()
	a := openFleetStore(t, dir)
	b := openFleetStore(t, dir)
	base := time.Now()
	a.now = func() time.Time { return base }
	b.now = func() time.Time { return base }

	tok, ok, err := a.TryAcquire("a", "http://a", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire: ok %v err %v", ok, err)
	}

	// One TTL later (leader silent — "killed"), the follower wins.
	b.now = func() time.Time { return base.Add(2 * time.Minute) }
	tok2, ok, err := b.TryAcquire("b", "http://b", time.Minute)
	if err != nil || !ok || tok2 != tok+1 {
		t.Fatalf("takeover: token %d ok %v err %v, want %d", tok2, ok, err, tok+1)
	}

	// The old leader comes back: renew must fail and clear its fence.
	if ok, err := a.Renew("a", tok, time.Minute); err != nil || ok {
		t.Fatalf("zombie renew succeeded: ok %v err %v", ok, err)
	}
	if a.Fence() != 0 {
		t.Fatalf("zombie kept fence %d", a.Fence())
	}

	// Re-taking one's own *expired* lease must also bump the token: a
	// commit from the pre-expiry epoch may still be in flight.
	b.now = func() time.Time { return base.Add(10 * time.Minute) }
	tok3, ok, err := b.TryAcquire("b", "http://b", time.Minute)
	if err != nil || !ok || tok3 != tok2+1 {
		t.Fatalf("self re-acquire after expiry: token %d ok %v err %v, want %d", tok3, ok, err, tok2+1)
	}
}

// TestFencedCommitStaleQuarantine is the stale-fence safety property:
// a demoted leader's in-flight commit is rejected with ErrStaleFence,
// its payload lands in quarantine (never the serving path), and the
// new leader's snapshot is untouched.
func TestFencedCommitStaleQuarantine(t *testing.T) {
	dir := t.TempDir()
	a := openFleetStore(t, dir)
	b := openFleetStore(t, dir)
	base := time.Now()
	a.now = func() time.Time { return base }
	b.now = func() time.Time { return base.Add(2 * time.Minute) }

	if _, ok, err := a.TryAcquire("a", "http://a", time.Minute); err != nil || !ok {
		t.Fatalf("acquire: ok %v err %v", ok, err)
	}
	e := testEntry(t, 30, 3)
	digest := e.Spec.Digest()
	if err := a.WriteEntry(e); err != nil {
		t.Fatal(err)
	}
	got, err := a.LoadEntry(digest)
	if err != nil || got.Fence != 1 {
		t.Fatalf("leader snapshot: fence %d err %v, want fence 1", got.Fence, err)
	}

	// b is elected after a's TTL lapses; a does not know yet.
	if _, ok, err := b.TryAcquire("b", "http://b", time.Minute); err != nil || !ok {
		t.Fatalf("takeover: ok %v err %v", ok, err)
	}

	// a's in-flight upgrade commit must lose the fence check.
	e2 := testEntry(t, 30, 3)
	e2.Tier = serial.QualityOptimal
	if err := a.WriteEntry(e2); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("stale commit: %v, want ErrStaleFence", err)
	}
	if a.Fence() != 0 {
		t.Fatalf("stale writer kept fence %d", a.Fence())
	}

	// The committed snapshot is still the old leader's valid one...
	got, err = b.LoadEntry(digest)
	if err != nil || got.Tier != serial.QualityIncumbent {
		t.Fatalf("serving snapshot after stale commit: tier %q err %v", got.Tier, err)
	}
	// ...and the rejected payload is quarantined for forensics.
	qnames, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(qnames) == 0 {
		t.Fatalf("stale payload not quarantined: %v err %v", qnames, err)
	}

	// The new leader can commit the upgrade.
	if err := b.WriteEntry(e2); err != nil {
		t.Fatal(err)
	}
	got, err = b.LoadEntry(digest)
	if err != nil || got.Tier != serial.QualityOptimal || got.Fence != 2 {
		t.Fatalf("new leader commit: tier %q fence %d err %v", got.Tier, got.Fence, err)
	}
}

// TestFleetCommitWithoutLease: in fleet mode a store that never
// acquired the lease cannot commit at all.
func TestFleetCommitWithoutLease(t *testing.T) {
	s := openFleetStore(t, t.TempDir())
	e := testEntry(t, 31, 3)
	if err := s.WriteEntry(e); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("fenceless commit: %v, want ErrStaleFence", err)
	}
	if _, err := s.LoadEntry(e.Spec.Digest()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fenceless commit became visible: %v", err)
	}
}

// TestStaleFenceFaultSite: the injected stale-fence site forces the
// rejection path on an otherwise-legitimate leader — prior snapshot
// intact, payload quarantined, and the leader recovers by re-acquiring.
func TestStaleFenceFaultSite(t *testing.T) {
	defer faultinject.Reset()
	s := openFleetStore(t, t.TempDir())
	if _, ok, err := s.TryAcquire("a", "http://a", time.Minute); err != nil || !ok {
		t.Fatalf("acquire: ok %v err %v", ok, err)
	}
	e := testEntry(t, 32, 3)
	digest := e.Spec.Digest()
	if err := s.WriteEntry(e); err != nil {
		t.Fatal(err)
	}

	faultinject.Set(FaultSiteStaleFence, faultinject.Fault{Err: errors.New("injected demotion"), Times: 1})
	e2 := testEntry(t, 32, 3)
	e2.Tier = serial.QualityOptimal
	if err := s.WriteEntry(e2); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("injected stale commit: %v, want ErrStaleFence", err)
	}
	got, err := s.LoadEntry(digest)
	if err != nil || got.Tier != serial.QualityIncumbent {
		t.Fatalf("prior snapshot damaged: tier %q err %v", got.Tier, err)
	}

	// The site cleared the fence; re-acquiring (same live lease, same
	// token) restores it and the retry commits.
	if _, ok, err := s.TryAcquire("a", "http://a", time.Minute); err != nil || !ok {
		t.Fatalf("re-acquire: ok %v err %v", ok, err)
	}
	if err := s.WriteEntry(e2); err != nil {
		t.Fatal(err)
	}
	if got, err = s.LoadEntry(digest); err != nil || got.Tier != serial.QualityOptimal {
		t.Fatalf("retry commit: tier %q err %v", got.Tier, err)
	}
}

// TestLeaseFaultSites arms every lease-protocol fault site and asserts
// each operation fails soft with the injected error — no panics, no
// partial lease state that blocks a later clean run.
func TestLeaseFaultSites(t *testing.T) {
	boom := errors.New("injected")
	ops := map[string]func(*Store) error{
		FaultSiteLeaseAcquire: func(s *Store) error { _, _, err := s.TryAcquire("x", "", time.Minute); return err },
		FaultSiteLeaseRenew:   func(s *Store) error { _, err := s.Renew("x", 1, time.Minute); return err },
		FaultSiteLeaseRelease: func(s *Store) error { return s.Release("x", 1) },
		FaultSiteLeaseRead:    func(s *Store) error { _, _, err := s.LeaseHolder(); return err },
		FaultSiteLeaseWrite:   func(s *Store) error { _, _, err := s.TryAcquire("x", "", time.Minute); return err },
	}
	for site, op := range ops {
		t.Run(strings.ReplaceAll(strings.TrimPrefix(site, "store/"), "/", "-"), func(t *testing.T) {
			defer faultinject.Reset()
			s := openFleetStore(t, t.TempDir())
			faultinject.Set(site, faultinject.Fault{Err: boom, Times: 1})
			if err := op(s); !errors.Is(err, boom) {
				t.Fatalf("%s armed: %v, want injected error", site, err)
			}
			// After the fault clears the protocol works from scratch.
			if _, ok, err := s.TryAcquire("x", "", time.Minute); err != nil || !ok {
				t.Fatalf("acquire after fault: ok %v err %v", ok, err)
			}
		})
	}
}

// TestLeaseCorruptRecordIsNotFreeLease: a corrupted lease record must
// read as an error, never as "lease free" — otherwise a flipped byte
// could mint a second writer.
func TestLeaseCorruptRecordIsNotFreeLease(t *testing.T) {
	dir := t.TempDir()
	s := openFleetStore(t, dir)
	if err := os.WriteFile(filepath.Join(dir, leaseName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.TryAcquire("a", "", time.Minute); err == nil || ok {
		t.Fatalf("acquire over corrupt record: ok %v err %v, want error", ok, err)
	}
}

// TestFleetSingleWriter: with a leader and a fenced-out peer hammering
// the same digest concurrently, only the leader's commits land; every
// peer commit is ErrStaleFence and the final snapshot carries the
// leader's token.
func TestFleetSingleWriter(t *testing.T) {
	dir := t.TempDir()
	a := openFleetStore(t, dir)
	b := openFleetStore(t, dir)
	tok, ok, err := a.TryAcquire("a", "http://a", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire: ok %v err %v", ok, err)
	}
	e := testEntry(t, 33, 3)
	digest := e.Spec.Digest()

	var wg sync.WaitGroup
	staleErrs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			w := testEntry(t, 33, 3)
			w.ETDD = 0.5 + float64(g)/100
			if err := a.WriteEntry(w); err != nil {
				t.Errorf("leader write: %v", err)
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			w := testEntry(t, 33, 3)
			w.ETDD = 0.9
			staleErrs[g] = b.WriteEntry(w)
		}(g)
	}
	wg.Wait()
	for g, err := range staleErrs {
		if !errors.Is(err, ErrStaleFence) {
			t.Fatalf("peer write %d: %v, want ErrStaleFence", g, err)
		}
	}
	got, err := a.LoadEntry(digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fence != tok || got.ETDD == 0.9 {
		t.Fatalf("non-leader value committed: fence %d etdd %v", got.Fence, got.ETDD)
	}
}

// TestLeaseMonotonicGuard: the wall-clock record can lie (clock stepped
// back, or nobody raced us during a SIGSTOP), but the monotonic clock
// cannot. A renewal that arrives past its monotonic deadline must be
// treated as lease loss — fence cleared — and the next TryAcquire must
// bump the token even though the on-disk record still names us,
// unexpired.
func TestLeaseMonotonicGuard(t *testing.T) {
	dir := t.TempDir()
	s := openFleetStore(t, dir)
	var mono time.Duration
	s.mono = func() time.Duration { return mono }

	tok, ok, err := s.TryAcquire("a", "http://a", time.Minute)
	if err != nil || !ok {
		t.Fatalf("acquire: ok %v err %v", ok, err)
	}

	// A timely renew extends the monotonic deadline.
	mono = 30 * time.Second
	if ok, err := s.Renew("a", tok, time.Minute); err != nil || !ok {
		t.Fatalf("timely renew: ok %v err %v", ok, err)
	}

	// Stall past the TTL: the renewal is late by the monotonic clock.
	// s.now was never swapped, so the wall-clock record is unexpired and
	// still ours — the guard alone must detect the loss.
	mono = 30*time.Second + 61*time.Second
	if ok, err := s.Renew("a", tok, time.Minute); err != nil || ok {
		t.Fatalf("late renew succeeded: ok %v err %v", ok, err)
	}
	if s.Fence() != 0 {
		t.Fatalf("late renewer kept fence %d", s.Fence())
	}
	rec, found, err := s.LeaseHolder()
	if err != nil || !found || rec.Owner != "a" || rec.Expired(time.Now()) {
		t.Fatalf("precondition broken: record %+v found %v err %v, want unexpired and ours", rec, found, err)
	}

	// A commit from the pre-stall epoch may be in flight, so re-taking
	// the still-named lease must mint a fresh token.
	tok2, ok, err := s.TryAcquire("a", "http://a", time.Minute)
	if err != nil || !ok || tok2 != tok+1 {
		t.Fatalf("re-acquire after mono loss: token %d ok %v err %v, want %d", tok2, ok, err, tok+1)
	}

	// The guard is re-armed, not latched: timely renews work again.
	mono += 30 * time.Second
	if ok, err := s.Renew("a", tok2, time.Minute); err != nil || !ok {
		t.Fatalf("renew after re-acquire: ok %v err %v", ok, err)
	}
}

// TestLeaseMonotonicGuardBlocksCommit: after a monotonic-late renewal
// the fence is cleared, so an in-flight commit fails with ErrStaleFence
// instead of racing the (possibly elected) peer.
func TestLeaseMonotonicGuardBlocksCommit(t *testing.T) {
	dir := t.TempDir()
	s := openFleetStore(t, dir)
	var mono time.Duration
	s.mono = func() time.Duration { return mono }

	if _, ok, err := s.TryAcquire("a", "http://a", time.Minute); err != nil || !ok {
		t.Fatalf("acquire: ok %v err %v", ok, err)
	}
	mono = 2 * time.Minute
	if ok, err := s.Renew("a", s.Fence(), time.Minute); err != nil || ok {
		t.Fatalf("late renew succeeded: ok %v err %v", ok, err)
	}
	e := testEntry(t, 34, 3)
	if err := s.WriteEntry(e); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("post-stall commit: %v, want ErrStaleFence", err)
	}
}
