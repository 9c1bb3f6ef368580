// Package testworld builds the synthetic corpus that the core and shard
// test suites share. It is test support: only _test.go files import it,
// and it imports nothing above trajdb, so the core package's own tests
// can use it.
package testworld

import (
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// BRN builds the BRN-like test world: a sparse city of about 20×20
// blocks, six keyword topics of forty terms, and 400 trajectories of 20
// samples on average. Every call builds a fresh, identical copy.
func BRN() (*roadnet.Graph, *textual.SyntheticVocab, *trajdb.Store) {
	g := roadnet.BRNLike(0.12, 7)
	vocab := textual.GenerateVocab(6, 40, 1.0, 11)
	db, err := trajdb.Generate(g, trajdb.GenOptions{
		Count:       400,
		MeanSamples: 20,
		Vocab:       vocab,
		Seed:        13,
	})
	if err != nil {
		panic("testworld: " + err.Error())
	}
	return g, vocab, db
}
