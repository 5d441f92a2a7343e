package runstore

// End-to-end artifact integrity. Verified wraps any Backend with sha256
// digest verification on every Get: each entry (kind, key) carries a
// sidecar digest under the derived kind "<kind>-sha256", written
// alongside every Put and checked against the fetched bytes on every
// read. A mismatch — bit rot on disk, a torn write predating the atomic
// discipline, wire corruption below the HTTP layer's own check — is
// never served: the corrupt bytes are moved to "<kind>-quarantine"
// (preserved for forensics), the entry and its digest are deleted, and
// the Get reports a miss, so the caller re-simulates and heals the
// store exactly like the JSON-decode miss path always has.
//
// Entries that predate the integrity layer have no sidecar; the first
// Get backfills one from the bytes it fetched (trust on first use), so
// an old store migrates to full coverage by being read — or all at once
// by a Scrub pass, which walks every entry of a kind through the same
// verify-or-quarantine decision.
//
// The derived kinds are ordinary entries in the same backend, so they
// ride the store's atomicity and replication for free; Verified skips
// verification for them (a digest has no digest).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

const (
	digestKindSuffix     = "-sha256"
	quarantineKindSuffix = "-quarantine"
)

// DigestKind returns the sidecar kind holding kind's entry digests.
func DigestKind(kind string) string { return kind + digestKindSuffix }

// QuarantineKind returns the kind corrupt entries of kind are moved to.
func QuarantineKind(kind string) string { return kind + quarantineKindSuffix }

// derivedKind reports whether kind is a digest or quarantine sidecar
// kind (never itself verified — a digest has no digest).
func derivedKind(kind string) bool {
	return strings.HasSuffix(kind, digestKindSuffix) || strings.HasSuffix(kind, quarantineKindSuffix)
}

// Digest is the store's content digest: hex sha256, the same shape as
// the store keys themselves.
func Digest(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// IntegrityCounters is a point-in-time snapshot of a Verified wrapper's
// counters (exported by the metrics layer as runstore_integrity_* and
// runstore_scrub_*).
type IntegrityCounters struct {
	Verified    uint64 // Gets whose bytes matched their sidecar digest
	Backfilled  uint64 // sidecars written on first read of a pre-integrity entry
	Quarantined uint64 // corrupt entries moved aside and missed
	DigestErrs  uint64 // sidecar reads/writes that themselves failed (entry served unverified)

	ScrubScanned     uint64 // entries examined by Scrub passes
	ScrubQuarantined uint64 // corrupt entries Scrub moved aside
}

// Verified decorates a Backend with digest sidecars and read-time
// verification. Construct with NewVerified; safe for concurrent use to
// the same degree the inner backend is.
type Verified struct {
	inner Backend
	// Warn reports non-fatal integrity events (quarantines, sidecar I/O
	// failures). Defaults to stderr.
	Warn func(format string, args ...interface{})

	verified, backfilled, quarantined, digestErrs atomic.Uint64
	scrubScanned, scrubQuarantined                atomic.Uint64
}

// NewVerified wraps inner with digest verification.
func NewVerified(inner Backend) *Verified {
	return &Verified{inner: inner}
}

// Unwrap exposes the inner backend (metrics chain walk, composition
// checks).
func (v *Verified) Unwrap() Backend { return v.inner }

// Counters snapshots the integrity counters.
func (v *Verified) Counters() IntegrityCounters {
	return IntegrityCounters{
		Verified:         v.verified.Load(),
		Backfilled:       v.backfilled.Load(),
		Quarantined:      v.quarantined.Load(),
		DigestErrs:       v.digestErrs.Load(),
		ScrubScanned:     v.scrubScanned.Load(),
		ScrubQuarantined: v.scrubQuarantined.Load(),
	}
}

func (v *Verified) warnf(format string, args ...interface{}) {
	if v.Warn != nil {
		v.Warn(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "runstore: warning: "+format+"\n", args...)
}

// verdict is one Get's integrity outcome.
type verdict int

const (
	vOK         verdict = iota // digest matched
	vBackfilled                // no sidecar existed; one was written (TOFU)
	vUnverified                // sidecar I/O failed; bytes served anyway
	vQuarantined
)

// Get implements Backend: fetch, verify against the sidecar digest,
// quarantine-and-miss on mismatch, backfill a missing sidecar.
func (v *Verified) Get(kind, key string) ([]byte, bool, error) {
	data, ok, err := v.inner.Get(kind, key)
	if err != nil || !ok || derivedKind(kind) {
		return data, ok, err
	}
	if v.verifyFetched(kind, key, data) == vQuarantined {
		return nil, false, nil
	}
	return data, true, nil
}

// verifyFetched runs the verify-or-quarantine decision on bytes already
// fetched for (kind, key), updating the counters.
func (v *Verified) verifyFetched(kind, key string, data []byte) verdict {
	want, haveDigest, err := v.inner.Get(DigestKind(kind), key)
	if err != nil {
		// The entry is fine as far as anyone can tell; only the sidecar
		// read failed. Serve the bytes (availability) but say so.
		v.digestErrs.Add(1)
		v.warnf("digest sidecar for %s %s unreadable (%v); serving unverified", kind, key, err)
		return vUnverified
	}
	got := Digest(data)
	if !haveDigest {
		// Pre-integrity entry: adopt its current bytes as the truth.
		if err := v.inner.Put(DigestKind(kind), key, []byte(got), true); err != nil {
			v.digestErrs.Add(1)
			v.warnf("digest backfill for %s %s failed: %v", kind, key, err)
			return vUnverified
		}
		v.backfilled.Add(1)
		return vBackfilled
	}
	if got == strings.TrimSpace(string(want)) {
		v.verified.Add(1)
		return vOK
	}
	v.quarantine(kind, key, data, strings.TrimSpace(string(want)), got)
	return vQuarantined
}

// quarantine moves a corrupt entry aside and deletes it (and its
// sidecar), so the next Get is a clean miss and the next Put heals.
func (v *Verified) quarantine(kind, key string, data []byte, want, got string) {
	v.quarantined.Add(1)
	if err := v.inner.Put(QuarantineKind(kind), key, data, true); err != nil {
		v.warnf("quarantine copy of %s %s failed: %v", kind, key, err)
	}
	if err := v.inner.Delete(kind, key); err != nil {
		v.warnf("deleting corrupt %s %s failed: %v", kind, key, err)
	}
	if err := v.inner.Delete(DigestKind(kind), key); err != nil {
		v.warnf("deleting stale digest of %s %s failed: %v", kind, key, err)
	}
	v.warnf("quarantined corrupt %s %s (digest %s, stored bytes hash to %s); treating as a miss",
		kind, key, short(want), short(got))
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// Put implements Backend: store the bytes, then their digest. A digest
// write failure leaves the entry TOFU-backfillable, not broken. A
// sidecar that already holds the digest is left alone, as is a derived
// entry replaced by identical bytes (a remote Verified sending the
// sidecar this layer just wrote): re-creating a file costs far more
// than reading it.
func (v *Verified) Put(kind, key string, data []byte, replace bool) error {
	if derivedKind(kind) {
		if replace {
			return v.putChanged(kind, key, data)
		}
		return v.inner.Put(kind, key, data, false)
	}
	if err := v.inner.Put(kind, key, data, replace); err != nil {
		return err
	}
	if err := v.putChanged(DigestKind(kind), key, []byte(Digest(data))); err != nil {
		v.digestErrs.Add(1)
		v.warnf("digest write for %s %s failed: %v", kind, key, err)
	}
	return nil
}

// putChanged stores data under (kind, key), replacing what is there,
// unless the entry already holds exactly data. An unreadable entry is
// written over.
func (v *Verified) putChanged(kind, key string, data []byte) error {
	if old, ok, err := v.inner.Get(kind, key); err == nil && ok && bytes.Equal(old, data) {
		return nil
	}
	return v.inner.Put(kind, key, data, true)
}

// Stat implements Backend.
func (v *Verified) Stat(kind, key string) (Info, bool, error) { return v.inner.Stat(kind, key) }

// Keys implements Backend.
func (v *Verified) Keys(kind string) ([]Info, error) { return v.inner.Keys(kind) }

// Delete implements Backend: the sidecar digest goes with the entry.
func (v *Verified) Delete(kind, key string) error {
	if err := v.inner.Delete(kind, key); err != nil {
		return err
	}
	if !derivedKind(kind) {
		if err := v.inner.Delete(DigestKind(kind), key); err != nil {
			v.warnf("deleting digest of %s %s failed: %v", kind, key, err)
		}
	}
	return nil
}

// ScrubKindStats is one kind's outcome from a Scrub pass.
type ScrubKindStats struct {
	Scanned     int   // entries examined
	OK          int   // digest matched
	Backfilled  int   // sidecar was missing; written from current bytes
	Quarantined int   // digest mismatched; entry moved aside
	Errors      int   // entries whose bytes or sidecar could not be read
	Bytes       int64 // total bytes of scanned entries
}

// ScrubStats aggregates a Scrub pass per kind.
type ScrubStats struct {
	Kinds map[string]ScrubKindStats
}

// Scrub walks every entry of the given kinds through the same
// verify-or-quarantine decision Get applies lazily, returning per-kind
// outcome counts. Run it periodically on long-lived shared stores
// (experiments -store-scrub) to surface bit rot before a sweep trips
// over it; a quarantined entry is simply re-simulated on next use.
func (v *Verified) Scrub(kinds ...string) (ScrubStats, error) {
	st := ScrubStats{Kinds: map[string]ScrubKindStats{}}
	for _, kind := range kinds {
		if derivedKind(kind) {
			continue
		}
		ks := ScrubKindStats{}
		infos, err := v.inner.Keys(kind)
		if err != nil {
			return st, err
		}
		for _, info := range infos {
			ks.Scanned++
			v.scrubScanned.Add(1)
			data, ok, err := v.inner.Get(kind, info.Key)
			if err != nil {
				ks.Errors++
				v.warnf("scrub: unreadable %s %s: %v", kind, info.Key, err)
				continue
			}
			if !ok {
				continue // raced with a concurrent delete
			}
			ks.Bytes += int64(len(data))
			switch v.verifyFetched(kind, info.Key, data) {
			case vOK:
				ks.OK++
			case vBackfilled:
				ks.Backfilled++
			case vUnverified:
				ks.Errors++
			case vQuarantined:
				ks.Quarantined++
				v.scrubQuarantined.Add(1)
			}
		}
		st.Kinds[kind] = ks
	}
	return st, nil
}

// FindVerified walks a backend composition (Unwrap chain) and returns
// the first Verified layer, or nil.
func FindVerified(b Backend) *Verified {
	for b != nil {
		if v, ok := b.(*Verified); ok {
			return v
		}
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return nil
		}
		b = u.Unwrap()
	}
	return nil
}
