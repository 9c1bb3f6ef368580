package shard

import (
	"fmt"

	"uots/internal/core"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// buildSubStore rebuilds one partition's trajectories as a standalone
// frozen store over the shared graph. Samples and keywords are copied
// because a Traj result is only valid until the next store call;
// keywords are pre-interned TermSets, so no vocabulary is needed.
func buildSubStore(db core.TrajStore, ids []trajdb.TrajID, shardIdx int) (core.TrajStore, error) {
	b := trajdb.NewBuilder(db.Graph(), nil)
	for _, gid := range ids {
		samples := append([]trajdb.Sample(nil), db.Traj(gid).Samples...)
		keywords := append(textual.TermSet(nil), db.Keywords(gid)...)
		if _, err := b.Add(samples, keywords); err != nil {
			return nil, fmt.Errorf("shard: rebuilding trajectory %d for shard %d: %w", gid, shardIdx, err)
		}
	}
	return b.Freeze(), nil
}

// buildShard builds shard i of an n-way split of db: the shard-local →
// global trajectory ID mapping (ascending) and the core.Engine over those
// trajectories, both nil when the shard holds none. It is the one place a
// shard engine is made — the in-process Executor and a shard server both
// call it, so partition i here holds exactly the trajectories a router's
// scatter expects of partition i. assign and wrap are the test seams of
// Config (nil = shardOf, no wrapper).
func buildShard(db core.TrajStore, opts core.Options, n, i int, assign func(trajdb.TrajID, int) int, wrap func(int, core.TrajStore) core.TrajStore) (*core.Engine, []trajdb.TrajID, error) {
	ids := shardIDs(db.NumTrajectories(), n, i, assign)
	if len(ids) == 0 {
		return nil, nil, nil
	}
	sub, err := buildSubStore(db, ids, i)
	if err != nil {
		return nil, nil, err
	}
	if wrap != nil {
		sub = wrap(i, sub)
	}
	eng, err := core.NewEngine(sub, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: engine for shard %d: %w", i, err)
	}
	return eng, ids, nil
}

// BuildShardEngine builds the core.Engine serving piece index of a
// shards-way split of db, plus the shard-local → global trajectory ID
// mapping its results need. This is the shard-server half of the
// distributed topology contract: a shard server and the router both
// derive the partition from the same (dataset, shard count) inputs, so
// piece index here holds exactly the trajectories the router's scatter
// expects of partition index. The third parameter carries nothing (see
// HashPartitioner).
//
// An empty partition returns (nil, nil, nil): serve it with a nil-engine
// rpc.ShardServer, which answers every search with zero results.
func BuildShardEngine(db core.TrajStore, opts core.Options, _ HashPartitioner, shards, index int) (eng *core.Engine, globals []trajdb.TrajID, err error) {
	defer recoverBuildFault(&err)
	if shards <= 0 || index < 0 || index >= shards {
		return nil, nil, fmt.Errorf("%w: shard %d of %d", ErrBadShards, index, shards)
	}
	return buildShard(db, opts, shards, index, nil, nil)
}
