// Package diskstore is a fixture TrajStore implementation.
package diskstore

import (
	"errors"

	"trajdb"
)

func readBlock(bad bool) {
	if bad {
		panic(errors.New("disk: short read")) // want `must panic with \*trajdb\.StoreError, not error`
	}
	panic(&trajdb.StoreError{Op: "readBlock"}) // ok
}

func repanic(r any) {
	//uots:allow storefault -- re-raising a foreign payload recovered from user callbacks
	panic(r)
}

func bareDirective(r any) {
	//uots:allow storefault
	panic(r) // want `must panic with \*trajdb\.StoreError`
}

func wrongName(r any) {
	//uots:allow ctxflow -- wrong analyzer name, must not suppress
	panic(r) // want `must panic with \*trajdb\.StoreError`
}
