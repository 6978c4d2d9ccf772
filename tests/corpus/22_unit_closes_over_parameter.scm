;; expect-value: (3 10 20)
;; A unit inside a lambda closes over the parameter, so its maker
;; stays in the closure; a unit inside a unit's init closes over
;; nothing and is hoisted.
(let ((make (lambda (k)
              (unit (import) (export)
                (define get (lambda () k))
                (get)))))
  (list (+ (invoke (make 1)) (invoke (make 2)))
        (invoke (invoke (unit (import) (export)
                          (unit (import) (export)
                            (define ten (lambda () 10))
                            (ten)))))
        (invoke (invoke (unit (import) (export)
                          (define twenty 20)
                          (unit (import) (export) twenty))))))
