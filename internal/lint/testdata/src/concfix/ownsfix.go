package concfix

import "sync"

// ownedSystem stands for a whole simulated system that one worker
// drives for its life.
type ownedSystem struct{ steps int }

// EpochShareOwnedFlagged gives each worker its own system without
// saying so: the walk sees writes through a pointer from outside.
func EpochShareOwnedFlagged(systems []*ownedSystem) {
	var wg sync.WaitGroup
	for _, s := range systems {
		wg.Add(1)
		go func(s *ownedSystem) {
			defer wg.Done()
			s.steps++ // want "writes shared state ownedSystem.steps"
		}(s)
	}
	wg.Wait()
}

// EpochShareOwned declares the ownership at the spawn, so epochshare
// roots no walk there.
func EpochShareOwned(systems []*ownedSystem) {
	var wg sync.WaitGroup
	for _, s := range systems {
		wg.Add(1)
		//conc:owns each worker drives the one system passed to it
		go func(s *ownedSystem) {
			defer wg.Done()
			s.steps++
		}(s)
	}
	wg.Wait()
}

// EpochShareOwnedStillChecked shows the directive silences epochshare
// alone: wgbalance and goroutinecapture still check the spawn.
func EpochShareOwnedStillChecked(systems []*ownedSystem) {
	var wg sync.WaitGroup
	var cur *ownedSystem
	for i := range systems {
		cur = systems[i]
		go func() { //conc:owns each worker drives the one system it captured
			// want "goroutine captures cur, which the enclosing loop reassigns"
			wg.Add(1) // want "wg.Add inside the spawned goroutine races wg.Wait"
			defer wg.Done()
			cur.steps++
		}()
	}
	wg.Wait()
}

// EpochShareOwnedMalformed carries a bare marker: it is reported, and
// the walk still roots at the spawn.
func EpochShareOwnedMalformed(s *ownedSystem) {
	done := make(chan struct{})
	go func() { //conc:owns
		// want "malformed directive: want //conc:owns <reason>"
		s.steps++ // want "writes shared state ownedSystem.steps"
		close(done)
	}()
	<-done
}
