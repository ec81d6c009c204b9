package service

import (
	"net/http"
	"testing"

	"raidrel/internal/core"
	"raidrel/internal/sim"
)

// fleetParams couples fastParams groups into 8-group fleets on a single
// repair crew, with a slow enough restore that the crew contends.
func fleetParams() core.Params {
	p := fastParams()
	p.TTR = core.WeibullSpec{Scale: 100, Shape: 1}
	p.Fleet = &sim.FleetOptions{Groups: 8, MaxConcurrentRebuilds: 1}
	return p
}

// A fleet job survives the full wire round trip: the params decode, the
// campaign runs the fleet engine, and the result document carries the
// heal-backlog tally.
func TestHTTPFleetJob(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 2, Workers: 2})
	spec := JobSpec{Params: fleetParams(), Seed: 7, Iterations: 1600}

	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	var doc jobDoc
	decodeJSON(t, resp, &doc)
	waitHTTPDone(t, ts.URL, doc.ID)

	var res resultDoc
	getJSON(t, ts.URL+"/v1/jobs/"+doc.ID+"/result", http.StatusOK, &res)
	f := res.Fleet
	if f == nil {
		t.Fatal("fleet job result carries no fleet tally")
	}
	if f.Chronologies != 200 || f.GroupsPer != 8 {
		t.Fatalf("tally shape %+v for 1600 iterations of 8-group fleets", f)
	}
	if f.Failures != f.Rebuilds+f.ActiveAtEnd+f.QueuedAtEnd {
		t.Fatalf("tally conservation violated on the wire: %+v", f)
	}
	if f.Waited == 0 {
		t.Fatal("single-crew fleet accrued no waits; wire test is vacuous")
	}

	// A scalar job of the same params must keep the legacy wire form:
	// no fleet section at all.
	scalar := JobSpec{Params: fastParams(), Seed: 7, Iterations: 200}
	resp = postJSON(t, ts.URL+"/v1/jobs", scalar)
	decodeJSON(t, resp, &doc)
	waitHTTPDone(t, ts.URL, doc.ID)
	var plain resultDoc
	getJSON(t, ts.URL+"/v1/jobs/"+doc.ID+"/result", http.StatusOK, &plain)
	if plain.Fleet != nil {
		t.Fatalf("scalar job result grew a fleet tally: %+v", plain.Fleet)
	}
}

// Fleet membership and its knobs are part of the job identity: same
// params with different fleet coupling must neither share fingerprints
// nor hit each other's cache entries.
func TestFleetJobIdentity(t *testing.T) {
	scalar := JobSpec{Params: fastParams(), Seed: 3, Iterations: 160}
	fleet := JobSpec{Params: fleetParams(), Seed: 3, Iterations: 160}
	fleet.Params.TTR = scalar.Params.TTR // isolate the fleet knob
	fpScalar := jobOf(t, scalar).Fingerprint
	fpFleet := jobOf(t, fleet).Fingerprint
	if fpScalar == fpFleet {
		t.Error("fleet coupling did not change the job fingerprint")
	}
	crews := fleet
	crews.Params.Fleet = &sim.FleetOptions{Groups: 8, MaxConcurrentRebuilds: 2}
	fpCrews := jobOf(t, crews).Fingerprint
	if fpCrews == fpFleet {
		t.Error("repair-slot change did not change the job fingerprint")
	}
}
