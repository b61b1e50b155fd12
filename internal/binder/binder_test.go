package binder

import (
	"testing"

	"repro/internal/javalang"
)

func echoHandler(code int, data any) (any, *javalang.Throwable) {
	return data, nil
}

func TestTransactSuccess(t *testing.T) {
	r := NewRouter()
	r.Publish("svc.echo", 100, echoHandler)
	reply, thr := r.Transact("svc.echo", 1, "hello")
	if thr != nil {
		t.Fatalf("Transact error: %v", thr)
	}
	if reply != "hello" {
		t.Fatalf("reply = %v", reply)
	}
	if r.TxCount() != 1 {
		t.Fatalf("TxCount = %d", r.TxCount())
	}
}

func TestTransactUnknownEndpoint(t *testing.T) {
	r := NewRouter()
	_, thr := r.Transact("svc.missing", 1, nil)
	if thr == nil || thr.Class != javalang.ClassDeadObject {
		t.Fatalf("expected DeadObjectException, got %v", thr)
	}
}

func TestTransactDeadOwner(t *testing.T) {
	r := NewRouter()
	r.Publish("svc.echo", 100, echoHandler)
	r.SetAlive(100, false)
	_, thr := r.Transact("svc.echo", 1, nil)
	if thr == nil || thr.Class != javalang.ClassDeadObject {
		t.Fatalf("expected DeadObjectException, got %v", thr)
	}
	if r.Lookup("svc.echo") {
		t.Fatal("Lookup true for dead owner")
	}
}

func TestHandlerThrowablePropagates(t *testing.T) {
	r := NewRouter()
	r.Publish("svc.bad", 100, func(code int, data any) (any, *javalang.Throwable) {
		return nil, javalang.New(javalang.ClassIllegalState, "not ready")
	})
	_, thr := r.Transact("svc.bad", 1, nil)
	if thr == nil || thr.Class != javalang.ClassIllegalState {
		t.Fatalf("got %v", thr)
	}
}

func TestRepublishReplacesEndpoint(t *testing.T) {
	r := NewRouter()
	r.Publish("svc.x", 1, func(int, any) (any, *javalang.Throwable) { return "old", nil })
	r.Publish("svc.x", 2, func(int, any) (any, *javalang.Throwable) { return "new", nil })
	reply, thr := r.Transact("svc.x", 0, nil)
	if thr != nil || reply != "new" {
		t.Fatalf("reply = %v thr = %v", reply, thr)
	}
}
