//go:build arena_debug

package engine

import "sync/atomic"

// arenaDebug reports whether arena poisoning is compiled in.
const arenaDebug = true

// arenaPoison is the fill byte stamped over reclaimed blocks; any stage
// still reading a released view sees 0xDB garbage instead of silently
// stale record bytes, turning use-after-release into a loud test failure
// (checksums break, payload assertions fail).
const arenaPoison = 0xDB

// poisonArena stamps a reclaimed block before it returns to the pool.
func poisonArena(buf []byte) {
	for i := range buf {
		buf[i] = arenaPoison
	}
}

// Live-block accounting (debug builds only): every block checked out of the
// pool increments the counter, every reclaim decrements it. Tests drain a
// pipeline, Close it, release every held view, and assert the counter is
// back to zero — a leaked view (or a lost fill reference) shows up as a
// nonzero residue.
//
// arenaActivations counts checkouts alone and never falls: a chain that
// reads storage views must finish a drain without moving it.
var arenaLiveBlocks, arenaActivations atomic.Int64

func arenaBlockActivated() { arenaLiveBlocks.Add(1); arenaActivations.Add(1) }
func arenaBlockRecycled()  { arenaLiveBlocks.Add(-1) }

// arenaLive reports the number of arena blocks currently checked out.
func arenaLive() int64 { return arenaLiveBlocks.Load() }

// LiveArenaBlocks is arenaLive for leak checks outside this package; it
// exists in debug builds only.
func LiveArenaBlocks() int64 { return arenaLive() }
