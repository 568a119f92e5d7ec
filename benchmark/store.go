package main

import (
	"sync/atomic"
	"time"

	"repro/internal/gpaw"
)

// timedStore decorates a checkpoint store with the time and volume of
// what passes through it, without touching the bytes. Counters are
// atomic because every rank writes its shard concurrently.
type timedStore struct {
	inner gpaw.Store

	writeNs, readNs        atomic.Int64
	shardsPut, bytesPut    atomic.Int64
	commits, manifestBytes atomic.Int64
}

func (s *timedStore) PutShard(step, rank int, data []byte) error {
	start := time.Now()
	err := s.inner.PutShard(step, rank, data)
	s.writeNs.Add(int64(time.Since(start)))
	s.shardsPut.Add(1)
	s.bytesPut.Add(int64(len(data)))
	return err
}

func (s *timedStore) GetShard(step, rank int) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.GetShard(step, rank)
	s.readNs.Add(int64(time.Since(start)))
	return data, err
}

func (s *timedStore) Commit(step int, manifest []byte) error {
	start := time.Now()
	err := s.inner.Commit(step, manifest)
	s.writeNs.Add(int64(time.Since(start)))
	s.commits.Add(1)
	s.manifestBytes.Add(int64(len(manifest)))
	return err
}

func (s *timedStore) Manifest(step int) ([]byte, error) {
	start := time.Now()
	data, err := s.inner.Manifest(step)
	s.readNs.Add(int64(time.Since(start)))
	return data, err
}

func (s *timedStore) Steps() ([]int, error) { return s.inner.Steps() }

// Drop forwards the retention policy's pruning, so a decorated store
// keeps exactly the generations the bare one would.
func (s *timedStore) Drop(step int) error {
	if d, ok := s.inner.(gpaw.StepDropper); ok {
		return d.Drop(step)
	}
	return nil
}
