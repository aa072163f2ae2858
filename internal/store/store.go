// Package store is the durable, crash-safe snapshot store behind the
// obfuscation service's mechanism cache. Two snapshot kinds live in one
// directory:
//
//	<digest>.mech   — a completed (possibly degraded) cache entry
//	<geometry>.pool — a road network's column-pool checkpoint, keyed by
//	                  the hex serial.SolveSpec.GeometryKey; never served
//
// Durability protocol: every write goes to a temp file in the same
// directory, is fsynced, atomically renamed over the final name, and the
// directory itself is fsynced — so a committed snapshot survives kill -9
// at any instant, and a crash mid-write leaves only ignorable temp
// debris, never a half-written committed file. Snapshots are versioned
// and SHA-256-checksummed by internal/serial; a file that fails
// checksum, version or semantic validation (including a key that does
// not match its file name) is quarantined into a subdirectory — kept for
// forensics, removed from the serving path — and reported, never served
// and never fatal. The worst outcome of any corruption is a cold
// re-solve.
//
// Fault injection: the five I/O sites (write, short write, fsync,
// rename, read) carry faultinject points so the chaos suite can kill
// the protocol at every step and assert the recovery invariants.
package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serial"
)

// Fault-injection sites visited by the store's I/O protocol.
const (
	FaultSiteWrite      = "store/write"
	FaultSiteShortWrite = "store/shortwrite"
	FaultSiteFsync      = "store/fsync"
	FaultSiteRename     = "store/rename"
	FaultSiteRead       = "store/read"
	FaultSiteQuarantine = "store/quarantine"
	FaultSiteRefresh    = "store/refresh"
	FaultSiteDirSync    = "store/dirsync"
	// FaultSiteQuarantineGC covers the bounded quarantine sweeper's
	// directory walk; an injected failure just defers the sweep.
	FaultSiteQuarantineGC = "store/quarantine/gc"
)

const (
	entryExt      = ".mech"
	CheckpointExt = ".pool" // a geometry's pool checkpoint; Scan skips it
	tmpPrefix     = "tmp-"
	quarantineDir = "quarantine"

	// Quarantine retention bounds: files older than quarantineMaxAge are
	// swept, and the directory is kept under quarantineCapBytes
	// oldest-first. Repeated corruption (or a flapping demoted leader
	// endlessly fencing out commits) must not be able to fill the disk
	// with forensic payloads.
	quarantineCapBytes = int64(64 << 20)
	quarantineMaxAge   = 24 * time.Hour

	// debrisGrace is how old a temp file must be before Scan removes it
	// as crash debris. In a fleet, a peer may be mid-commit right now;
	// no live protocol run holds a temp file anywhere near this long.
	debrisGrace = time.Minute

	// scanSettle is the quiescence window for the directory-mtime
	// short-circuit: the cached listing is only trusted when the
	// directory had already been still for longer than the coarsest
	// filesystem mtime granularity at the previous walk.
	scanSettle = 2 * time.Second
)

// ErrNotFound reports that no committed snapshot exists for a digest.
var ErrNotFound = errors.New("store: snapshot not found")

// ErrCorrupt wraps every validation failure of a committed snapshot;
// the offending file has already been quarantined when a load returns
// it. errors.Is(err, ErrCorrupt) distinguishes "re-solve and move on"
// from real I/O trouble.
var ErrCorrupt = errors.New("store: corrupt snapshot")

// Store is a snapshot directory. All methods are safe for concurrent
// use by multiple goroutines of one process; the atomic-rename protocol
// additionally keeps concurrent writers of the same digest from ever
// exposing a torn file (last rename wins whole). In fleet mode (see
// OpenFleet) commits are additionally fenced by the lease protocol in
// lease.go, so of N processes sharing the directory only the current
// leaseholder can commit.
type Store struct {
	dir   string
	fleet bool
	// fence is the lease token stamped into commits; 0 when this
	// process holds no lease. Maintained by TryAcquire/Renew/Release.
	fence atomic.Uint64
	// now is the clock, swappable by tests for lease-expiry scenarios.
	now func() time.Time
	// mono is the monotonic clock backing the lease guard in lease.go,
	// swappable by tests for skew scenarios. Unlike now it cannot jump:
	// a renewal that arrives late by mono missed its deadline no matter
	// what the wall clock claims.
	mono func() time.Duration

	// Monotonic lease guard state (lease.go). monoDeadline is the
	// monotonic instant our lease expires; monoLost records that a
	// renewal missed it, forcing the next TryAcquire to bump the token
	// even if the wall-clock record still names us unexpired.
	monoMu       sync.Mutex
	monoValid    bool
	monoLost     bool
	monoDeadline time.Duration

	// Quarantine sweeper bounds (lowercase: tests tighten them) and the
	// bytes-freed counter surfaced as /stats quarantine_gc_bytes.
	quarCap    int64
	quarMaxAge time.Duration
	quarMu     sync.Mutex
	quarSwept  atomic.Uint64

	// Scan cache: per-file (size, mtime) stamps plus the decoded result,
	// so repeated scans re-read only files that actually changed.
	scanMu     sync.Mutex
	scanCache  map[string]scanCached
	dirMtime   time.Time
	dirValid   bool
	dirSettled bool
}

// scanCached is the (size, mtime) stamp of a committed entry Scan
// validated.
type scanCached struct {
	size  int64
	mtime time.Time
}

// Open creates (if needed) and returns the store at dir in
// single-process mode: commits are not fenced and snapshots carry
// fencing token 0.
func Open(dir string) (*Store, error) { return open(dir, false) }

// OpenFleet opens the store at dir in fleet mode: every commit must
// hold the current lease (TryAcquire) and re-verifies its fencing token
// under the lease lock immediately before the rename. Commits without
// the lease fail with ErrStaleFence and their payload is quarantined.
func OpenFleet(dir string) (*Store, error) { return open(dir, true) }

func open(dir string, fleet bool) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{
		dir:        dir,
		fleet:      fleet,
		now:        time.Now,
		mono:       func() time.Duration { return time.Since(monoStart) },
		quarCap:    quarantineCapBytes,
		quarMaxAge: quarantineMaxAge,
		scanCache:  make(map[string]scanCached),
	}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// WriteEntry durably persists a completed entry snapshot under its
// spec's digest, stamping the store's current fencing token into the
// snapshot (0 outside fleet mode) for forensic attribution.
func (s *Store) WriteEntry(e *serial.StoredEntry) error {
	e.Fence = s.fence.Load()
	data, err := serial.EncodeStoredEntry(e)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.commit(e.Spec.Digest()+entryExt, data)
}

// WriteCheckpoint durably persists a column-pool checkpoint under its
// spec's geometry key, replacing the geometry's previous one. Like
// WriteEntry it stamps the current fencing token.
func (s *Store) WriteCheckpoint(c *serial.StoredCheckpoint) error {
	c.Fence = s.fence.Load()
	data, err := serial.EncodeStoredCheckpoint(c)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.commit(GeometryName(&c.Spec)+CheckpointExt, data)
}

// GeometryName is the hex form of spec's GeometryKey that names its
// geometry's pool checkpoint.
func GeometryName(spec *serial.SolveSpec) string {
	k := spec.GeometryKey()
	return hex.EncodeToString(k[:])
}

// LoadEntry reads and validates the committed entry snapshot for
// digest. A snapshot that fails checksum/validation — or whose embedded
// spec does not hash to the digest naming the file — is quarantined and
// reported as ErrCorrupt; a missing file is ErrNotFound.
func (s *Store) LoadEntry(digest string) (*serial.StoredEntry, error) {
	return load(s, digest, entryExt, serial.DecodeStoredEntry, func(e *serial.StoredEntry) string { return e.Spec.Digest() })
}

// LoadCheckpoint is LoadEntry for the pool checkpoint of the geometry
// named geometry (see GeometryName).
func (s *Store) LoadCheckpoint(geometry string) (*serial.StoredCheckpoint, error) {
	return load(s, geometry, CheckpointExt, serial.DecodeStoredCheckpoint, func(c *serial.StoredCheckpoint) string { return GeometryName(&c.Spec) })
}

// load reads and decodes the committed snapshot key+ext, quarantining
// one that fails to decode or whose spec keys to another name.
func load[T any](s *Store, key, ext string, decode func([]byte) (*T, error), keyOf func(*T) string) (*T, error) {
	name := key + ext
	data, err := s.read(name)
	if err != nil {
		return nil, err
	}
	v, err := decode(data)
	if err == nil && keyOf(v) != key {
		err = fmt.Errorf("embedded spec keys to %s, not the file name", keyOf(v))
	}
	if err != nil {
		s.quarantine(name)
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, err)
	}
	return v, nil
}

// ScanReport is the outcome of a startup or refresh scan.
type ScanReport struct {
	// Entries lists the digests of the valid entry snapshots, lazily
	// loadable via LoadEntry.
	Entries []string
	// Quarantined counts files moved aside this scan for failing
	// checksum, version or semantic validation.
	Quarantined int
	// Delta lists the entries that are new or changed since the
	// previous Scan on this Store — what a follower's refresh loop
	// feeds into its cache.
	Delta []string
	// Loaded counts files actually read and decoded this scan; a scan
	// over an unchanged directory reports 0 (everything served from the
	// per-file stamp cache).
	Loaded int
}

// Scan walks the store directory, validating every committed entry:
// valid entries are reported, pool checkpoints are skipped undecoded
// (LoadCheckpoint validates one when a solve asks for it), corrupt
// files are quarantined, and temp debris from crashed writes is deleted (only
// once older than debrisGrace — in a fleet a peer may be mid-commit).
// Scan never fails on the content of any individual file — a torn
// write or hostile bytes cost that one file, nothing else.
//
// Repeated scans are cheap: each valid entry's (size, mtime) is
// cached, so an unchanged file is never re-read, and an
// unchanged directory (by mtime, once quiescent for scanSettle) is not
// even re-listed. The directory is stat'ed before the walk, so a
// writer racing the walk can only make the cache conservatively stale
// — the next Scan re-walks.
func (s *Store) Scan() (*ScanReport, error) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	if ferr := faultinject.At(FaultSiteRefresh); ferr != nil {
		return nil, fmt.Errorf("store: scan: %w", ferr)
	}
	now := s.now()
	di, derr := os.Stat(s.dir)
	if derr == nil && s.dirValid && s.dirSettled && di.ModTime().Equal(s.dirMtime) {
		return s.reportFromCache(0, nil, 0), nil
	}
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan: %w", err)
	}
	loaded, quarantined := 0, 0
	var delta []string
	live := make(map[string]bool, len(names))
	for _, de := range names {
		name := de.Name()
		if de.IsDir() || name == leaseName || name == leaseLockName || strings.HasSuffix(name, CheckpointExt) {
			continue // quarantine/, the lease protocol's files, pool checkpoints
		}
		if strings.HasPrefix(name, tmpPrefix) {
			// Debris of a write that never committed: the rename never
			// happened, so nothing references it. Remove quietly, but
			// only once old enough that no live peer can still own it.
			if fi, ferr := de.Info(); ferr == nil && now.Sub(fi.ModTime()) > debrisGrace {
				_ = os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		fi, ferr := de.Info()
		if ferr != nil {
			continue // vanished between the listing and the stat
		}
		if c, ok := s.scanCache[name]; ok && c.size == fi.Size() && c.mtime.Equal(fi.ModTime()) {
			live[name] = true
			continue
		}
		if !strings.HasSuffix(name, entryExt) {
			// Unknown file kind in the store directory: treat exactly
			// like a corrupt snapshot — move it out of the way.
			s.quarantine(name)
			quarantined++
			continue
		}
		digest := strings.TrimSuffix(name, entryExt)
		if _, err := s.LoadEntry(digest); err != nil {
			// LoadEntry quarantined a corrupt file already; count it.
			if errors.Is(err, ErrCorrupt) {
				quarantined++
			}
			continue
		}
		loaded++
		s.scanCache[name] = scanCached{size: fi.Size(), mtime: fi.ModTime()}
		delta = append(delta, digest)
		live[name] = true
	}
	// Files that disappeared (peers' quarantines) fall out of the cache
	// and the report.
	for name := range s.scanCache {
		if !live[name] {
			delete(s.scanCache, name)
		}
	}
	if derr == nil {
		s.dirMtime = di.ModTime()
		s.dirValid = true
		s.dirSettled = now.Sub(di.ModTime()) > scanSettle
	} else {
		s.dirValid = false
	}
	// Every real walk also bounds the quarantine directory, so a store
	// that only ever scans (a follower) still ages out old forensics.
	s.sweepQuarantine()
	return s.reportFromCache(loaded, delta, quarantined), nil
}

// reportFromCache materialises a fresh ScanReport (callers own it) from
// the stamp cache, in digest order for determinism.
func (s *Store) reportFromCache(loaded int, delta []string, quarantined int) *ScanReport {
	rep := &ScanReport{Loaded: loaded, Delta: delta, Quarantined: quarantined}
	for name := range s.scanCache {
		rep.Entries = append(rep.Entries, strings.TrimSuffix(name, entryExt))
	}
	sort.Strings(rep.Entries)
	return rep
}

// commit runs the atomic durability protocol: temp write → fsync →
// rename → directory fsync. On any failure the temp file is removed and
// the previously committed snapshot (if any) is untouched.
func (s *Store) commit(name string, data []byte) (err error) {
	f, err := os.CreateTemp(s.dir, tmpPrefix+name+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	torn := false
	defer func() {
		if err != nil && !torn {
			f.Close()
			_ = os.Remove(tmp)
		}
	}()
	if ferr := faultinject.At(FaultSiteWrite); ferr != nil {
		return fmt.Errorf("store: write %s: %w", name, ferr)
	}
	if ferr := faultinject.At(FaultSiteShortWrite); ferr != nil {
		// Simulated torn write: half the bytes land, then the protocol
		// aborts as if the process died. The temp file is deliberately
		// left behind (a real crash leaves it too); recovery must shrug
		// it off.
		_, _ = f.Write(data[:len(data)/2])
		f.Close()
		torn = true
		return fmt.Errorf("store: write %s: %w", name, ferr)
	}
	if _, werr := f.Write(data); werr != nil {
		return fmt.Errorf("store: %w", werr)
	}
	if ferr := faultinject.At(FaultSiteFsync); ferr != nil {
		return fmt.Errorf("store: fsync %s: %w", name, ferr)
	}
	if serr := f.Sync(); serr != nil {
		return fmt.Errorf("store: %w", serr)
	}
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("store: %w", cerr)
	}
	if ferr := faultinject.At(FaultSiteRename); ferr != nil {
		return fmt.Errorf("store: rename %s: %w", name, ferr)
	}
	if s.fleet {
		return s.fencedRename(tmp, name)
	}
	if rerr := os.Rename(tmp, filepath.Join(s.dir, name)); rerr != nil {
		return fmt.Errorf("store: %w", rerr)
	}
	s.syncDir()
	return nil
}

// fencedRename is the fleet-mode commit step: under the lease lock it
// re-reads the lease record and renames only if this store's fencing
// token is still the one on file. An election needs the same lock, so
// no new leader can be minted between the check and the rename. A
// stale (or absent) token quarantines the payload and reports
// ErrStaleFence — a demoted leader's write is discarded, never served.
func (s *Store) fencedRename(tmp, name string) error {
	cur := s.fence.Load()
	if ferr := faultinject.At(FaultSiteStaleFence); ferr != nil {
		return s.rejectStale(tmp, name, cur)
	}
	if cur == 0 {
		return s.rejectStale(tmp, name, cur)
	}
	lock, err := s.lockLease()
	if err != nil {
		return fmt.Errorf("store: commit %s: %w", name, err)
	}
	defer unlockLease(lock)
	rec, ok, err := s.readLease()
	if err != nil {
		return fmt.Errorf("store: commit %s: %w", name, err)
	}
	if !ok || rec.Token != cur {
		return s.rejectStale(tmp, name, cur)
	}
	if rerr := os.Rename(tmp, filepath.Join(s.dir, name)); rerr != nil {
		return fmt.Errorf("store: %w", rerr)
	}
	s.syncDir()
	return nil
}

// rejectStale quarantines a fenced-out commit's temp payload (kept for
// forensics under its unique temp name) and clears the stale fence so
// subsequent writes fail fast without re-contending the lease lock.
func (s *Store) rejectStale(tmp, name string, cur uint64) error {
	s.fence.CompareAndSwap(cur, 0)
	s.quarantine(filepath.Base(tmp))
	return fmt.Errorf("store: commit %s: fence %d: %w", name, cur, ErrStaleFence)
}

// syncDir fsyncs the store directory so a just-committed rename
// survives power loss. A failure here (injected or real) only weakens
// power-loss durability of an already crash-consistent rename, so it
// is ignored.
func (s *Store) syncDir() {
	if ferr := faultinject.At(FaultSiteDirSync); ferr != nil {
		return
	}
	if d, derr := os.Open(s.dir); derr == nil {
		//lint:ignore errflow directory-fsync failure only weakens power-loss durability of an already crash-consistent rename; see the function comment
		_ = d.Sync()
		d.Close()
	}
}

// read fetches a committed snapshot's bytes.
func (s *Store) read(name string) ([]byte, error) {
	if ferr := faultinject.At(FaultSiteRead); ferr != nil {
		return nil, fmt.Errorf("store: read %s: %w", name, ferr)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// quarantine moves a rejected file into the quarantine subdirectory
// (creating it on first use), falling back to deletion if the move
// fails. It never reports an error: quarantine runs on recovery paths
// that must not themselves fail.
func (s *Store) quarantine(name string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	_ = os.MkdirAll(qdir, 0o755)
	src := filepath.Join(s.dir, name)
	if ferr := faultinject.At(FaultSiteQuarantine); ferr != nil {
		// An injected crash here leaves the corrupt file in place; the
		// next scan re-detects and re-quarantines it, so losing the move
		// is safe.
		return
	}
	if err := os.Rename(src, filepath.Join(qdir, name)); err != nil {
		_ = os.Remove(src)
	}
	s.sweepQuarantine()
}

// sweepQuarantine bounds the quarantine subdirectory: files older than
// quarMaxAge are removed, then oldest-first until the total size fits
// quarCap. Freed bytes accumulate in quarSwept. Best-effort like
// quarantine itself — any failure just defers the sweep to the next
// insert or scan.
func (s *Store) sweepQuarantine() {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	qdir := filepath.Join(s.dir, quarantineDir)
	if _, err := os.Stat(qdir); err != nil {
		return
	}
	if ferr := faultinject.At(FaultSiteQuarantineGC); ferr != nil {
		return
	}
	des, err := os.ReadDir(qdir)
	if err != nil {
		return
	}
	type qfile struct {
		name  string
		size  int64
		mtime time.Time
	}
	files := make([]qfile, 0, len(des))
	var total int64
	for _, de := range des {
		fi, ierr := de.Info()
		if ierr != nil || de.IsDir() {
			continue
		}
		files = append(files, qfile{de.Name(), fi.Size(), fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	now := s.now()
	// Oldest first: age-expired files always go; once the remainder is
	// young enough, keep deleting only while still over the cap. The
	// sort makes one pass sufficient — every later file is newer.
	for _, f := range files {
		if now.Sub(f.mtime) <= s.quarMaxAge && total <= s.quarCap {
			break
		}
		if rerr := os.Remove(filepath.Join(qdir, f.name)); rerr == nil {
			total -= f.size
			s.quarSwept.Add(uint64(f.size))
		}
	}
}

// QuarantineGCBytes returns the cumulative bytes the quarantine sweeper
// has freed — the /stats quarantine_gc_bytes source.
func (s *Store) QuarantineGCBytes() uint64 { return s.quarSwept.Load() }
