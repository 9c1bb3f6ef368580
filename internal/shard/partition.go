package shard

import "uots/internal/trajdb"

// shardOf is the whole partitioning contract: trajectory id of an n-way
// split lives on shard splitmix64(id) % n. It is a pure function of the
// ID and the shard count — no store, no flag, no name — so the router's
// in-process executor and every shard server of a fleet derive the same
// layout from (dataset, shard count) alone and cannot be configured
// apart. Hashing spreads neighbouring trajectories over different
// shards, which gives near-uniform shard sizes and near-uniform
// per-shard work for spatially clustered queries. No other file knows
// this function.
func shardOf(id trajdb.TrajID, n int) int {
	return int(splitmix64(uint64(id)) % uint64(n))
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed integer
// hash (Steele et al.), so consecutive IDs spread evenly across shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardIDs lists, ascending, the global IDs of the trajectories among
// [0, total) that assign (nil = shardOf) places on shard i of n. It
// derives that one shard's list without materialising the others.
//
// Ascending order matters for correctness, not just tidiness:
// shard-local dense IDs are assigned in list order, so local ID order
// agrees with global ID order and the per-shard engines'
// smaller-ID-wins tie-breaks translate directly to the global merge.
func shardIDs(total, n, i int, assign func(id trajdb.TrajID, n int) int) []trajdb.TrajID {
	if assign == nil {
		assign = shardOf
	}
	ids := make([]trajdb.TrajID, 0, total/n+1)
	for id := trajdb.TrajID(0); int(id) < total; id++ {
		if assign(id, n) == i {
			ids = append(ids, id)
		}
	}
	return ids
}

// HashPartitioner is the zero-size third argument of BuildShardEngine.
// It selects nothing — shardOf is the only assignment — and exists only
// because benchmark/layers/stack.go:245 spells the call with it.
type HashPartitioner struct{}
