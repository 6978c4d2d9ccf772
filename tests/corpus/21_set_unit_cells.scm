;; expect-value: (111 111 5 12)
;; set! on an imported cell, on an exported cell and on a private
;; definition: every unit sees the shared cell's latest value.
(invoke
  (compound (import) (export)
    (link ((unit (import) (export n get-n bump-private)
             (define n 0)
             (define secret 2)
             (define get-n (lambda () n))
             (define bump-private (lambda ()
               (begin (set! secret (+ secret 3)) secret)))
             (set! n 11))
           (with) (provides n get-n bump-private))
          ((unit (import n get-n bump-private) (export)
             (begin
               (set! n (+ n 100))
               (list n (get-n) (bump-private) (+ (bump-private) 4))))
           (with n get-n bump-private) (provides)))))
